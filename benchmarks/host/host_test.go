package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
)

// tinyParams is a heap small enough that a few thousand driver operations
// see minor and major collections, incremental ones included.
var tinyParams = heapParams{
	nurseryBytes:   16 << 10,
	majorBytes:     64 << 10,
	copyLimitBytes: 4 << 10,
	oldSemiBytes:   4 << 20,
}

// The wrapper must leave a run simulated-bit-identical: same clock, same
// per-account breakdown, same pause list, same reachable graph.
func TestWrapperLeavesRunIdentical(t *testing.T) {
	for _, collector := range []string{collectorRT, collectorSC} {
		run := func(wrapped bool) (*rig, uint64) {
			r, err := newRig(nil, tinyParams, collector, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !wrapped {
				r.mut.AttachGC(r.gc.inner)
			}
			d := gctest.NewDriver(r.mut, 7)
			if err := d.Step(20000); err != nil {
				t.Fatalf("%s wrapped=%v: %v", collector, wrapped, err)
			}
			if err := r.mut.GC.FinishCycles(r.mut); err != nil {
				t.Fatal(err)
			}
			return r, d.Fingerprint()
		}
		bare, bareFP := run(false)
		wrap, wrapFP := run(true)
		if bareFP != wrapFP {
			t.Errorf("%s: reachable graph differs under the wrapper", collector)
		}
		if a, b := bare.mut.Clock.Now(), wrap.mut.Clock.Now(); a != b {
			t.Errorf("%s: simulated clock %v bare, %v wrapped", collector, a, b)
		}
		if a, b := bare.mut.Clock.Breakdown(), wrap.mut.Clock.Breakdown(); a != b {
			t.Errorf("%s: per-account breakdown differs under the wrapper", collector)
		}
		if a, b := bare.gc.Pauses().Pauses, wrap.gc.Pauses().Pauses; !reflect.DeepEqual(a, b) {
			t.Errorf("%s: pause lists differ under the wrapper (%d vs %d pauses)", collector, len(a), len(b))
		}
		if len(wrap.gc.Pauses().Pauses) == 0 || wrap.gc.Stats().MajorCollections == 0 {
			t.Errorf("%s: the tiny run saw no major collection; it proves nothing", collector)
		}
		if wrap.gc.calls == 0 {
			t.Errorf("%s: the wrapper counted no calls", collector)
		}
	}
}

// An oversized allocation while a major collection is in progress must be
// born in the major's to-space. The mutator learns where from PromoteSpace,
// which it finds by type assertion: a wrapper that hid it would send the
// object to from-space.
func TestWrapperForwardsPromotionSpace(t *testing.T) {
	r, err := newRig(nil, tinyParams, collectorRT, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.gc.inner.(*core.Replicating)
	d := gctest.NewDriver(r.mut, 11)
	for i := 0; rep.PromoteSpace() != r.heap.OldTo(); i++ {
		if i == 100000 {
			t.Fatal("no major collection became active")
		}
		if err := d.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	words := int(r.heap.Nursery.LimitBytes() / heap.BytesPerWord) // over half the nursery
	p, err := r.mut.Alloc(heap.KindArray, words)
	if err != nil {
		t.Fatal(err)
	}
	if !r.heap.OldTo().Contains(p) {
		t.Errorf("oversized allocation during a major landed outside the promotion space")
	}
	h := r.mut.PushHandle(p)
	if err := d.Step(5000); err != nil {
		t.Fatal(err)
	}
	if err := r.gc.FinishCycles(r.mut); err != nil {
		t.Fatal(err)
	}
	if got := r.mut.Length(r.mut.HandleVal(h)); got != words {
		t.Errorf("oversized object has length %d after collection, want %d", got, words)
	}
	if err := d.Verify(); err != nil {
		t.Error(err)
	}
	if err := core.AuditHeap(r.mut); err != nil {
		t.Error(err)
	}
}

func TestSelfTimes(t *testing.T) {
	// iteration [0,100] → setup [0,10] → heap.new [2,8]; run [10,90] with
	// two pauses [20,30] and [40,45]; digest [90,100]. A span before the
	// range must be ignored.
	spans := []span{
		{Name: "earlier", Start: 0, End: 1000, Parent: -1},
		{Name: "iteration", Start: 0, End: 100, Parent: -1},
		{Name: "setup", Start: 0, End: 10, Parent: 1},
		{Name: "heap.new", Start: 2, End: 8, Parent: 2},
		{Name: "run", Start: 10, End: 90, Parent: 1},
		{Name: "collector.pause", Start: 20, End: 30, Parent: 4},
		{Name: "collector.pause", Start: 40, End: 45, Parent: 4},
		{Name: "digest", Start: 90, End: 100, Parent: 1},
	}
	lt := timesOf(spans, 1, len(spans))
	want := map[string][2]int64{ // total, self
		"iteration":       {100, 0},
		"setup":           {10, 4},
		"heap.new":        {6, 6},
		"run":             {80, 65},
		"collector.pause": {15, 15},
		"digest":          {10, 10},
	}
	var selfSum int64
	for name, w := range want {
		if got := int64(lt.total[name]); got != w[0] {
			t.Errorf("%s total %d, want %d", name, got, w[0])
		}
		if got := int64(lt.self[name]); got != w[1] {
			t.Errorf("%s self %d, want %d", name, got, w[1])
		}
		selfSum += int64(lt.self[name])
	}
	if selfSum != 100 {
		t.Errorf("self times sum to %d, want the iteration's 100", selfSum)
	}
	if _, ok := lt.total["earlier"]; ok {
		t.Error("a span before the range was counted")
	}
	if got := durationsOf(spans, "collector.pause"); len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Errorf("pause durations %v, want [5 10]", got)
	}
}

func TestKnee(t *testing.T) {
	row := func(rps, p99, last float64) ladderRow {
		return ladderRow{rps: rps, p99Ms: p99, lastMs: last, horizon: 60000}
	}
	cases := []struct {
		name string
		rows []ladderRow
		want float64
	}{
		{"rising p99 crosses the limit", []ladderRow{row(440, 56, 60000), row(550, 58, 60000), row(660, 71, 60001), row(770, 106, 60002)}, 660},
		{"every rate meets it", []ladderRow{row(440, 56, 60000), row(550, 99, 60500)}, 550},
		{"base rate misses", []ladderRow{row(440, 101, 60000), row(550, 50, 60000)}, 0},
		{"a pass above a miss does not count", []ladderRow{row(440, 50, 60000), row(550, 120, 60000), row(660, 90, 60000)}, 440},
		{"growing backlog", []ladderRow{row(440, 50, 60000), row(550, 60, 61001)}, 440},
		{"exactly at the limit", []ladderRow{row(440, 100, 61000)}, 440},
		{"unserved requests", []ladderRow{row(440, 50, 60000), {rps: 550, unserved: true}}, 440},
	}
	for _, c := range cases {
		if got := knee(c.rows); got != c.want {
			t.Errorf("%s: knee %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(vs, n=4) and statistics.median(vs).
	cases := []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2, 5, 4, 7, 6}, [3]float64{2, 4, 6}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.vs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	host := metricDef{name: "host_run_s", better: "lower", bound: 0.15}
	sim := metricDef{name: "sim_elapsed_ms", better: "lower", bound: 0.01}
	mmu := metricDef{name: "sim_mmu_1s", better: "higher", bound: 0.01}
	gate := metricDef{name: "failed_share", better: "lower", bound: 0}
	cases := []struct {
		d    metricDef
		a, b metricReport
		want string
	}{
		{host, metricReport{Value: 2.0, Q1: f(1.95), Q3: f(2.05)}, metricReport{Value: 2.1, Q1: f(2.0), Q3: f(2.2)}, verdictWithin},
		{host, metricReport{Value: 2.0, Q1: f(1.95), Q3: f(2.05)}, metricReport{Value: 2.5, Q1: f(2.4), Q3: f(2.6)}, verdictWorse},
		{host, metricReport{Value: 2.0, Q1: f(1.9), Q3: f(2.45)}, metricReport{Value: 2.4, Q1: f(2.3), Q3: f(2.5)}, verdictUnresolved},
		{host, metricReport{Value: 2.0, Q1: f(1.6), Q3: f(2.4)}, metricReport{Value: 2.0, Q1: f(1.95), Q3: f(2.05)}, verdictUnresolved},
		{host, metricReport{Value: 2.0, Q1: f(1.95), Q3: f(2.05)}, metricReport{Value: 1.5, Q1: f(1.45), Q3: f(1.55)}, verdictBetter},
		{sim, metricReport{Value: 1000}, metricReport{Value: 1000}, verdictWithin},
		{sim, metricReport{Value: 1000}, metricReport{Value: 1011}, verdictWorse},
		{sim, metricReport{Value: 1000}, metricReport{Value: 900}, verdictBetter},
		{mmu, metricReport{Value: 0.5}, metricReport{Value: 0.4}, verdictWorse},
		{mmu, metricReport{Value: 0.5}, metricReport{Value: 0.6}, verdictBetter},
		{gate, metricReport{Value: 0}, metricReport{Value: 0}, verdictWithin},
		{gate, metricReport{Value: 0}, metricReport{Value: 0.001}, verdictWorse},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d (%s %v→%v): %s, want %s", i, c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json must list exactly the names the program prints, with the
// same units and directions, and the names must be ones the driver accepts.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}

	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var wantE2E, wantLayer []benchmarkMetric
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameOK.MatchString(d.name) || !unitOK.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) is not a name and unit the driver accepts", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range endToEnd {
		m := benchmarkMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.driver {
			wantE2E = append(wantE2E, m)
		} else {
			wantLayer = append(wantLayer, m)
		}
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, benchmarkMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}

	strip := func(ms []benchmarkMetric, wantBound bool) []benchmarkMetric {
		out := make([]benchmarkMetric, len(ms))
		for i, m := range ms {
			if (m.Bound != nil) != wantBound {
				t.Errorf("BENCHMARK.json metric %s: bound present = %v, want %v", m.Name, m.Bound != nil, wantBound)
			}
			if m.Bound != nil && (*m.Bound < 0 || *m.Bound > 0.25) {
				t.Errorf("BENCHMARK.json metric %s: bound %v outside [0, 0.25]", m.Name, *m.Bound)
			}
			m.Bound = nil
			out[i] = m
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	sort.Slice(wantE2E, func(i, j int) bool { return wantE2E[i].Name < wantE2E[j].Name })
	sort.Slice(wantLayer, func(i, j int) bool { return wantLayer[i].Name < wantLayer[j].Name })
	if got := strip(bj.EndToEnd, true); !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end:\n got %v\nwant %v", got, wantE2E)
	}
	if got := strip(bj.PerLayer, false); !reflect.DeepEqual(got, wantLayer) {
		t.Errorf("BENCHMARK.json per_layer:\n got %v\nwant %v", got, wantLayer)
	}

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmarks"}) {
		t.Errorf("BENCHMARK.json paths %v, want [benchmarks]", bj.Paths)
	}
}

// Every workload's inputs are a function of the seed alone, and differ
// between seeds.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 5)
		c, _ := newWorkload(name, 6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
