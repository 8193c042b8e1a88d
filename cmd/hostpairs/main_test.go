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
		Workload: "sort", Seed: 1, Traced: true, Iterations: 5, Correct: true, Attempted: 3,
		SimFingerprint: fingerprint,
		EndToEnd: map[string]metric{
			"host_peak_rss_mb": {Value: rss, Unit: "MB"},
			"sim_elapsed_ms":   {Value: 191003, Unit: "ms"},
		},
		PerLayer: map[string]metric{"host_run_s": {Value: run, Unit: "s"}},
	}}}
	if err := writeJSON(filepath.Join(dir, fmt.Sprintf("%s.%d.json", side, pair)), &f); err != nil {
		t.Fatal(err)
	}
}

func writeBench(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "BENCHMARK.json")
	decl := `{"end_to_end": [{"name": "host_peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
		{"name": "sim_elapsed_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "host_run_s", "unit": "s", "better": "lower"}]}`
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
	if err := digest(&out, dir, bench, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sort, seed 1: 10 pairs, simulated fingerprint d7f6",
		"| `host_peak_rss_mb` | MB | 338.1 [338 .. 338.2] | 237.05 [237 .. 237.1] | -29.9 % | 10/10 | 0/10 | resolves: better |",
		"| `sim_elapsed_ms` | ms | 191003 | 191003 | +0.0 % | 0/10 | 0/10 | equal on every pair |",
		"| 6/10 | 4/10 | not resolved |",
		"| `host_run_s` | parent | 2.01 2.02 2.03",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("digest output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "| `sim_elapsed_ms` | parent |") {
		t.Error("a metric that never varied got a per-run row")
	}

	// The folded file is what `run.sh --compare` reads: medians, quartiles
	// and the per-run values as samples.
	data, err := os.ReadFile(filepath.Join(dir, "change.json"))
	if err != nil {
		t.Fatal(err)
	}
	var folded reportFile
	if err := json.Unmarshal(data, &folded); err != nil {
		t.Fatal(err)
	}
	r := folded.Workloads["sort"]
	if r == nil || r.Iterations != 10 || r.SimFingerprint != "d7f6" {
		t.Fatalf("folded report: %+v", r)
	}
	if m := r.EndToEnd["host_peak_rss_mb"]; m.Value != 237.05 || len(m.Samples) != 10 || m.Q1 == nil || *m.Q1 != 237 {
		t.Fatalf("folded host_peak_rss_mb: %+v", m)
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
	if err := digest(&out, dir, bench, false); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("digest over differing fingerprints: err = %v", err)
	}
}

// TestDigestTooFewPairs: one pair won by a mile still resolves nothing.
func TestDigestTooFewPairs(t *testing.T) {
	dir := t.TempDir()
	bench := writeBench(t, dir)
	writeRun(t, dir, "parent", 1, "d7f6", 338, 2)
	writeRun(t, dir, "change", 1, "d7f6", 237, 2)
	var out strings.Builder
	if err := digest(&out, dir, bench, false); err != nil {
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
