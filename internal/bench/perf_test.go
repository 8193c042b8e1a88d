package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/trace"
	"repligc/internal/workload"
)

// TestPerfGateAndValidator covers the two checks every committed perf report
// passes through: ComparePerf (the exact baseline gate, which must name the
// first differing path) and ValidatePerf (shape and schema).
func TestPerfGateAndValidator(t *testing.T) {
	gate := []struct {
		name, fresh, baseline string
		want                  string // substring of the error; "" = must pass
	}{
		{"equal", `{"a":{"b":[1,2.5]},"s":"x","n":null}`, `{"n":null,"s":"x","a":{"b":[1,2.5]}}`, ""},
		{"nested number", `{"w":[{"leg":{"ms":1.5}}]}`, `{"w":[{"leg":{"ms":2.5}}]}`,
			".w[0].leg.ms is 1.5, baseline has 2.5"},
		{"array length", `{"w":{"mmu":[1,2]}}`, `{"w":{"mmu":[1]}}`,
			".w.mmu (length) is 2, baseline has 1"},
		{"extra member in fresh", `{"a":1,"x":{"y":2}}`, `{"a":1}`,
			".x is map[y:2], baseline has (missing)"},
		{"extra member in baseline", `{"a":{"b":1}}`, `{"a":{"b":1,"x":2}}`,
			".a.x is (missing), baseline has 2"},
		// Null is not absent, even when "other" keeps the member counts level.
		{"null versus absent", `{"a":1,"n":null}`, `{"a":1,"other":3}`,
			".n is <nil>, baseline has (missing)"},
		{"nothing is exempt", `{"barrier_ns_per_op":{"naive":13}}`, `{"barrier_ns_per_op":{"naive":14}}`,
			".barrier_ns_per_op.naive is 13, baseline has 14"},
	}
	for _, tc := range gate {
		err := ComparePerf([]byte(tc.fresh), []byte(tc.baseline))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: gate passed, want %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), "perf baseline: "+tc.want):
			t.Errorf("%s: gate said %q, want %q", tc.name, err, tc.want)
		}
	}

	committed, err := os.ReadFile("../../BENCH_SMOKE.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerf(committed); err != nil {
		t.Errorf("committed baseline: %v", err)
	}
	if err := ComparePerf(committed, committed); err != nil {
		t.Errorf("committed baseline against itself: %v", err)
	}
	// The floor under the pause bound: an rt leg over 57.6 ms is rejected
	// unless the leg lists a pause that had no budget; the checkpointed leg,
	// whose pauses carry snapshot increments, is not held to it.
	floor := func(name string, edit func(*PerfReport), want string) {
		var rep PerfReport
		if err := json.Unmarshal(committed, &rep); err != nil {
			t.Fatal(err)
		}
		edit(&rep)
		data, _ := json.Marshal(rep)
		if err := ValidatePerf(data); (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want %q", name, err, want)
		}
	}
	floor("rt leg over the bound", func(r *PerfReport) { r.Workloads[2].Coalesced.PauseMaxMs = 68.944 },
		"Sort coalesced: pause_max_ms = 68.944 exceeds the pause bound 57.6 ms")
	floor("rt leg over the bound, overrun listed", func(r *PerfReport) {
		r.Workloads[2].Coalesced.PauseMaxMs, r.Workloads[2].Coalesced.Unbudgeted = 68.944, 1
	}, "")
	floor("checkpointed leg over the bound", func(r *PerfReport) { r.Workloads[2].Checkpointed.PauseMaxMs = 68.944 }, "")
	// Each run's row is checked, wherever the report holds it.
	floor("perf leg", func(r *PerfReport) { r.Workloads[0].Baseline.PauseP90Ms = 1e6 }, "Primes baseline: pause percentiles are not monotone")
	floor("checkpointed leg", func(r *PerfReport) { r.Workloads[1].Checkpointed.Checkpoint = nil }, "Comp checkpointed: checkpoint writer attached: false")
	floor("serving leg", func(r *PerfReport) { r.Serving.Legs[1].Run.MMU = nil }, "serving leg coalesced: mmu curve is empty")

	stale := strings.Replace(string(committed), PerfSchema, "repligc-bench/6", 1)
	if err := ValidatePerf([]byte(stale)); err == nil || !strings.Contains(err.Error(), `schema "repligc-bench/6"`) {
		t.Errorf("a /6 document: got %v, want a schema rejection", err)
	}
}

// TestPerfLegNeedsNoRecorder: a perf leg is a digest of the collector's own
// pause record. Built from a rig.Config with no Trace, the runtime has no
// flight recorder and the leg still carries its MMU curve, over the run's
// whole span, and its phase times; attaching one changes nothing in the leg,
// and what its events say of the phases is what the leg says.
func TestPerfLegNeedsNoRecorder(t *testing.T) {
	w, err := WorkloadByName("Sort", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	rc := rig.Config{Collector: rig.RT, Params: perfParams()}
	if rt, err := rig.New(rc); err != nil || rt.Recorder != nil {
		t.Fatalf("a configuration with no Trace built a runtime with recorder %v (err %v)", rt.Recorder, err)
	}
	res, err := Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	leg := res.Row()
	if err := leg.Check(); err != nil {
		t.Fatal(err)
	}
	if last := leg.MMU[len(leg.MMU)-1].WindowMs; last != leg.ElapsedMs {
		t.Errorf("the last MMU window is %v ms, the run lasted %v ms", last, leg.ElapsedMs)
	}
	rc.Trace = trace.NewRecorder(1 << 20)
	traced, err := Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(leg, traced.Row()) {
		t.Errorf("attaching a recorder changed the leg:\n off %+v\n on  %+v", leg, traced.Row())
	}
	d, err := trace.Analyze(rc.Trace.Events())
	if err != nil || rc.Trace.Dropped() != 0 {
		t.Fatalf("analyzing the traced run: %v (%d events dropped)", err, rc.Trace.Dropped())
	}
	var fromTrace []rig.PhaseRow
	for p := simtime.Phase(0); p < simtime.NumPhases; p++ {
		if d.PhaseSpans[p] > 0 {
			fromTrace = append(fromTrace, rig.PhaseRow{Phase: p.String(), Ms: d.PhaseTime[p].Milliseconds(), Count: d.PhaseSpans[p]})
		}
	}
	if len(leg.Phases) == 0 || !reflect.DeepEqual(leg.Phases, fromTrace) {
		t.Errorf("phase_ms is %+v, the trace says %+v", leg.Phases, fromTrace)
	}
}

// TestDefaultServeSpecIsTheCommittedFile ties the perf report's serving
// section to CI's serve smoke: the Go literal and examples/serve/mixed.json
// are two spellings of one spec.
func TestDefaultServeSpecIsTheCommittedFile(t *testing.T) {
	raw, err := os.ReadFile("../../examples/serve/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	committed, err := workload.ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if literal := DefaultServeSpec(DefaultScale()); !reflect.DeepEqual(committed, literal) {
		t.Errorf("examples/serve/mixed.json parses to\n%+v\nDefaultServeSpec(DefaultScale()) is\n%+v", committed, literal)
	}
}
