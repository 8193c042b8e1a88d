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

// TestPerfValidator covers ValidatePerf, the check every emitted perf report
// passes through (shape, schema and the floor under the pause bound); the
// committed report is also gated by bytes (make bench-smoke).
func TestPerfValidator(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_SMOKE.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerf(committed); err != nil {
		t.Errorf("committed report: %v", err)
	}
	// The floor under the pause bound: an rt leg over 51.207 ms is rejected
	// unless the leg lists a pause that had no budget, checkpointed or not.
	// A checkpointed leg lists one for each epoch it committed.
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
		"Sort coalesced: pause_max_ms = 68.944 exceeds the pause bound 51.207 ms")
	floor("rt leg over the bound, overrun listed", func(r *PerfReport) {
		r.Workloads[2].Coalesced.PauseMaxMs, r.Workloads[2].Coalesced.Unbudgeted = 68.944, 1
	}, "")
	floor("checkpointed leg over the bound, its commits not listed", func(r *PerfReport) { r.Workloads[2].Checkpointed.Unbudgeted = 0 },
		"Sort checkpointed: pause_max_ms = ")
	var rep PerfReport
	if err := json.Unmarshal(committed, &rep); err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workloads {
		if leg := w.Checkpointed; leg.Unbudgeted < leg.Checkpoint.Committed {
			t.Errorf("%s checkpointed: %d unbudgeted pauses, %d epochs committed", w.Name, leg.Unbudgeted, leg.Checkpoint.Committed)
		}
	}
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
