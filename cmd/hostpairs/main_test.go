package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRun writes one side's report file for one pair.
func writeRun(t *testing.T, dir, side string, pair int, fingerprint string, rss, run float64) {
	t.Helper()
	f := reportFile{Workloads: map[string]*report{"sort": {
		Seed: 1, Correct: true, Attempted: 3, SimFingerprint: fingerprint,
		EndToEnd: map[string]metric{
			"host_peak_rss_mb": {Value: rss},
			"sim_elapsed_ms":   {Value: 191003},
		},
		PerLayer: map[string]metric{"host_run_s": {Value: run}},
	}}}
	data, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.%d.json", side, pair)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeBench declares both end-to-end metrics with a 10 % bound.
func writeBench(t *testing.T, dir string) string {
	t.Helper()
	return writeBenchBound(t, dir, 0.1)
}

// writeBenchBound declares host_peak_rss_mb with the given bound.
func writeBenchBound(t *testing.T, dir string, rssBound float64) string {
	t.Helper()
	path := filepath.Join(dir, "BENCHMARK.json")
	decl := fmt.Sprintf(`{"end_to_end": [{"name": "host_peak_rss_mb", "unit": "MB", "better": "lower", "bound": %g},
		{"name": "sim_elapsed_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "host_run_s", "unit": "s", "better": "lower"}]}`, rssBound)
	if err := os.WriteFile(path, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDigest(t *testing.T) {
	dir := t.TempDir()
	bench := writeBench(t, dir)
	// RSS: the change wins all ten pairs by far more than the parent's
	// spread. Run time: the change wins six of ten — nothing to claim.
	for i := 1; i <= 10; i++ {
		runP, runC := 2.0+0.01*float64(i), 1.9+0.01*float64(i)
		if i > 6 {
			runC = runP + 0.3
		}
		writeRun(t, dir, "parent", i, "d7f6", 338+0.1*float64(i%3), runP)
		writeRun(t, dir, "change", i, "d7f6", 237+0.1*float64(i%2), runC)
	}
	var out strings.Builder
	if err := digest(&out, dir, bench, true, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sort, seed 1: 10 pairs, simulated fingerprint d7f6",
		"| `host_peak_rss_mb` | MB | 338.1 [338 .. 338.2] | 237.05 [237 .. 237.1] | -29.9 % | 10/10 | 0/10 | resolves: better | 10 % | better |",
		"| `sim_elapsed_ms` | ms | 191003 | 191003 | +0.0 % | 0/10 | 0/10 | equal on every pair | 10 % | within bound |",
		"| 6/10 | 4/10 | not resolved |  |  |",
		"| `host_run_s` | parent | 2.01 2.02 2.03",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("digest output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "| `sim_elapsed_ms` | parent |") {
		t.Error("a metric that never varied got a per-run row")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 21 {
		t.Errorf("digest left %d files beside the 20 runs and the declaration (%v)", len(entries), err)
	}
}

// TestDigestRefusesDifferentWork: host numbers of runs that did not do the
// same simulated work must not be compared at all.
func TestDigestRefusesDifferentWork(t *testing.T) {
	dir := t.TempDir()
	bench := writeBench(t, dir)
	writeRun(t, dir, "parent", 1, "d7f6", 338, 2)
	writeRun(t, dir, "change", 1, "beef", 237, 2)
	var out strings.Builder
	if err := digest(&out, dir, bench, false, nil); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("digest over differing fingerprints: err = %v", err)
	}
}

// TestDigestNamedSimChange: a fingerprint move that -sim-change names is
// digested, with the simulated deltas; one it does not name, or a named
// workload whose runs disagree on a side, still fails.
func TestDigestNamedSimChange(t *testing.T) {
	named := map[string]simMove{"sort": {"d7f6", "21ed"}}
	for _, c := range []struct {
		name     string
		moves    map[string]simMove
		changeFP func(pair int) string
		fail     string // the error's text when the digest must fail
	}{
		{"named move passes", named, func(int) string { return "21ed" }, ""},
		{"unnamed move fails", nil, func(int) string { return "21ed" }, "want seed 1 to d7f6"},
		{"another workload named", map[string]simMove{"primes": {"d7f6", "21ed"}}, func(int) string { return "21ed" }, "want seed 1 to d7f6"},
		{"named workload's runs disagree", named, func(pair int) string {
			if pair == 7 {
				return "beef"
			}
			return "21ed"
		}, "pair 7: the change run of sort ran seed 1 to fingerprint beef, want seed 1 to 21ed"},
		{"named move, wrong parent fingerprint", map[string]simMove{"sort": {"aaaa", "21ed"}}, func(int) string { return "21ed" },
			"pair 1: the parent run of sort ran seed 1 to fingerprint d7f6, want seed 1 to aaaa"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			bench := writeBench(t, dir)
			for i := 1; i <= 10; i++ {
				writeRun(t, dir, "parent", i, "d7f6", 237, 2)
				writeRun(t, dir, "change", i, c.changeFP(i), 237, 2)
			}
			var out strings.Builder
			err := digest(&out, dir, bench, false, c.moves)
			if c.fail != "" {
				if err == nil || !strings.Contains(err.Error(), c.fail) {
					t.Fatalf("digest error %v, want one containing %q", err, c.fail)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"sort, seed 1: 10 pairs, simulated fingerprint d7f6 on every parent run and 21ed on every change run (a named simulated change)",
				"| `sim_elapsed_ms` | ms | 191003 | 191003 | +0.0 % |",
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("digest output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestParseSimChange(t *testing.T) {
	got, err := parseSimChange("primes=a1:b2,sort=c3:d4")
	if err != nil || len(got) != 2 || got["primes"] != (simMove{"a1", "b2"}) || got["sort"] != (simMove{"c3", "d4"}) {
		t.Fatalf("parseSimChange = %v, %v", got, err)
	}
	for _, bad := range []string{"sort", "sort=a1", "sort=:b2", "=a1:b2", "sort=a1:b2,sort=a1:b2"} {
		if _, err := parseSimChange(bad); err == nil {
			t.Errorf("parseSimChange(%q) took it", bad)
		}
	}
}

// TestDigestFailsOnlyOnWorseEndToEnd: digest's error, hostpairs' exit
// status, says an end-to-end metric is over its bound. A metric that
// resolves worse by the claim rule but stays within its bound, a per-layer
// metric that resolves worse, and an end-to-end one the parent's spread
// leaves unresolved are no failure; nor is a gain whose change runs spread
// wider than the bound, since only the parent's spread decides.
func TestDigestFailsOnlyOnWorseEndToEnd(t *testing.T) {
	for _, c := range []struct {
		name     string
		bound    float64 // of host_peak_rss_mb
		rss, run func(i int) (parent, change float64)
		verdict  string // the row of the metric that varies ends so
		fail     bool
	}{
		{"per-layer worse", 0.1,
			func(i int) (float64, float64) { return 237, 237 },
			func(i int) (float64, float64) { return 2 + 0.01*float64(i), 2.5 + 0.01*float64(i) }, "| resolves: WORSE |  |  |", false},
		{"end-to-end unresolved", 0.1,
			func(i int) (float64, float64) { return 200 + 60*float64(i%2), 237 + float64(i%2) },
			func(i int) (float64, float64) { return 2, 2 }, "| not resolved | 10 % | unresolved |", false},
		{"end-to-end worse", 0.1,
			func(i int) (float64, float64) { return 237 + 0.1*float64(i%3), 338 },
			func(i int) (float64, float64) { return 2, 2 }, "| +42.6 % | 0/10 | 10/10 | resolves: WORSE | 10 % | over bound |", true},
		{"end-to-end worse within bound", 0.1,
			func(i int) (float64, float64) { return 237 + 0.1*float64(i%3), 239.4 + 0.1*float64(i%3) },
			func(i int) (float64, float64) { return 2, 2 }, "| +1.0 % | 0/10 | 10/10 | resolves: WORSE | 10 % | within bound |", false},
		// A gain of the shape group4's host_mallocs_k showed: the change's
		// own spread, 2.2 % of its median, is wider than the bound.
		{"end-to-end better with a wide change spread", 0.02,
			func(i int) (float64, float64) { return 4.9 + 0.01*float64(i%3), 0.58 + 0.013*float64(i%2) },
			func(i int) (float64, float64) { return 2, 2 }, "| 10/10 | 0/10 | resolves: better | 2 % | better |", false},
		// Every change run beats every parent run: better, though the
		// parent's spread is wider than the bound.
		{"end-to-end better with a wide parent spread", 0.1,
			func(i int) (float64, float64) { return 200 + 60*float64(i%2), 150 + float64(i%2) },
			func(i int) (float64, float64) { return 2, 2 }, "| 10/10 | 0/10 | resolves: better | 10 % | better |", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			bench := writeBenchBound(t, dir, c.bound)
			for i := 1; i <= 10; i++ {
				rssP, rssC := c.rss(i)
				runP, runC := c.run(i)
				writeRun(t, dir, "parent", i, "d7f6", rssP, runP)
				writeRun(t, dir, "change", i, "d7f6", rssC, runC)
			}
			var out strings.Builder
			err := digest(&out, dir, bench, false, nil)
			if c.fail != (err != nil) {
				t.Fatalf("digest error %v, want one: %v\n%s", err, c.fail, out.String())
			}
			if c.fail && !strings.Contains(err.Error(), "sort host_peak_rss_mb") {
				t.Errorf("digest error %q does not name the metric", err)
			}
			if !strings.Contains(out.String(), c.verdict+"\n") {
				t.Errorf("no metric's row ends %q:\n%s", c.verdict, out.String())
			}
		})
	}
}

// TestDigestTooFewPairs: one pair won by a mile still resolves nothing.
func TestDigestTooFewPairs(t *testing.T) {
	dir := t.TempDir()
	bench := writeBench(t, dir)
	writeRun(t, dir, "parent", 1, "d7f6", 338, 2)
	writeRun(t, dir, "change", 1, "d7f6", 237, 2)
	var out strings.Builder
	if err := digest(&out, dir, bench, false, nil); err != nil {
		t.Fatal(err)
	}
	if want := "| -29.9 % | 1/1 | 0/1 | fewer than ten pairs |"; !strings.Contains(out.String(), want) {
		t.Fatalf("digest output lacks %q:\n%s", want, out.String())
	}
}

func TestQuartilesExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q := quartiles(vs); q != (quart{2.75, 5.5, 8.25}) {
		t.Fatalf("quartiles = %+v", q)
	}
	if q := quartiles([]float64{3}); q != (quart{3, 3, 3}) {
		t.Fatalf("quartiles of one value = %+v", q)
	}
}
