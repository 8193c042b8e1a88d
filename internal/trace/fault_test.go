package trace_test

// Satellite coverage: the trace must stay well-formed under every
// fault-injection plan — balanced pause begin/end, flat non-overlapping
// phases, emergency rungs visible as distinct phases — even when the run
// ends in a typed OOM. This pins the collectors' hook discipline: every
// exit path out of an instrumented region closes what it opened.

import (
	"slices"
	"testing"

	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/trace"
)

// attach wires a fresh recorder into every hook point of a hand-built run
// (every other run gets the same wiring from rig.New).
func attach(t *testing.T, m *core.Mutator, gc core.Collector) *trace.Recorder {
	t.Helper()
	tr := trace.NewRecorder(1 << 18)
	m.Trace = tr
	clock := m.Clock
	m.H.EpochHook = func(epoch uint32) { tr.LogEpoch(clock.Now(), int64(epoch)) }
	ts, ok := gc.(interface{ SetTrace(*trace.Recorder) })
	if !ok {
		t.Fatalf("collector %s does not implement SetTrace", gc.Name())
	}
	ts.SetTrace(tr)
	return tr
}

func newRT(nursery, old int64, incremental bool) (*core.Mutator, core.Collector) {
	h := heap.New(heap.Config{NurseryBytes: nursery, NurseryCapBytes: 4 * nursery, OldSemiBytes: old})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, core.Config{
		NurseryBytes:        nursery,
		MajorThresholdBytes: old / 4,
		CopyLimitBytes:      4 << 10,
		IncrementalMinor:    incremental,
		IncrementalMajor:    incremental,
	})
	m.AttachGC(gc)
	return m, gc
}

func newSC(nursery, old int64) (*core.Mutator, core.Collector) {
	h := heap.New(heap.Config{NurseryBytes: nursery, NurseryCapBytes: 4 * nursery, OldSemiBytes: old})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogPointersOnly)
	gc := stopcopy.New(h, stopcopy.Config{NurseryBytes: nursery, MajorThresholdBytes: old / 4})
	m.AttachGC(gc)
	return m, gc
}

// sameAsRecord requires the pauses rebuilt from a run's events to be the
// collector's own record of them, in everything an event carries.
func sameAsRecord(t *testing.T, traced, record []simtime.Pause) {
	t.Helper()
	if len(traced) != len(record) {
		t.Fatalf("the trace holds %d pauses, the collector recorded %d", len(traced), len(record))
	}
	for i, p := range record {
		want := simtime.Pause{At: p.At, Length: p.Length, Kind: p.Kind, CopiedB: p.CopiedB, LogProcN: p.LogProcN,
			PhaseTime: p.PhaseTime, PhaseSpans: p.PhaseSpans}
		if traced[i] != want {
			t.Fatalf("pause %d: the trace says %+v, the record %+v", i, traced[i], want)
		}
	}
}

// planAt builds a plan firing action at a spread of operation points.
func planAt(action faultinject.Action, arg int64, ops ...int64) faultinject.Plan {
	p := faultinject.Plan{}
	for _, op := range ops {
		p.Events = append(p.Events, faultinject.Event{AtOp: op, Action: action, Arg: arg})
	}
	return p
}

// TestTraceWellFormedUnderFaultPlans runs every fault plan against every
// collector shape and requires a validating trace regardless of outcome.
func TestTraceWellFormedUnderFaultPlans(t *testing.T) {
	plans := []struct {
		name string
		plan faultinject.Plan
	}{
		{"force-collect", faultinject.Plan{Every: 25}},
		{"shrink-old", planAt(faultinject.ShrinkOld, 2<<10, 200, 500, 800)},
		{"log-spike", planAt(faultinject.LogSpike, 256, 100, 300, 500, 700)},
		{"force-complete", planAt(faultinject.ForceComplete, 0, 150, 450, 750)},
	}
	collectors := []struct {
		name string
		mk   func() (*core.Mutator, core.Collector)
	}{
		{"replicating-incremental", func() (*core.Mutator, core.Collector) { return newRT(16<<10, 96<<10, true) }},
		{"replicating-stw", func() (*core.Mutator, core.Collector) { return newRT(16<<10, 96<<10, false) }},
		{"stopcopy", func() (*core.Mutator, core.Collector) { return newSC(16<<10, 96<<10) }},
	}
	for _, pc := range plans {
		for _, cc := range collectors {
			t.Run(pc.name+"/"+cc.name, func(t *testing.T) {
				m, gc := cc.mk()
				tr := attach(t, m, gc)
				d := gctest.NewDriver(m, 17)
				in := faultinject.New(m, pc.plan)
				d.Inject = in.Tick
				runErr := d.Step(1500)
				if runErr != nil {
					if _, ok := core.AsOOM(runErr); !ok {
						t.Fatalf("run failed with an untyped error: %v", runErr)
					}
				}
				if tr.Dropped() != 0 {
					t.Fatalf("recorder dropped %d events; enlarge the test capacity", tr.Dropped())
				}
				evs := tr.Events()
				if len(evs) == 0 {
					t.Fatal("fault plan produced no trace events")
				}
				if err := trace.Validate(evs); err != nil {
					t.Fatalf("trace not well-formed (run err: %v): %v", runErr, err)
				}
				an, err := trace.Analyze(evs)
				if err != nil {
					t.Fatal(err)
				}
				stats := gc.Stats()
				if got, want := len(an.Pauses), int(stats.PauseCount); got != want {
					t.Errorf("trace has %d pause spans, GCStats counted %d", got, want)
				}
				sameAsRecord(t, an.Pauses, gc.Pauses().Pauses)
				// Emergency rungs must be visible as distinct phases. Only
				// asserted for clean runs: a collector that wedged can count
				// an emergency attempt it refused to execute.
				if runErr == nil && stats.EmergencyCollections > 0 &&
					an.PhaseSpans[simtime.PhaseEmergency] == 0 {
					t.Errorf("%d emergency collections but no emergency phase in the trace",
						stats.EmergencyCollections)
				}
			})
		}
	}
}

// TestEmergencyRungVisibleInTrace drives a run into the degradation ladder
// deterministically (tiny old space, adversarial shrinks) and requires the
// emergency phase to appear — the positive counterpart of the conditional
// check above.
func TestEmergencyRungVisibleInTrace(t *testing.T) {
	found := false
	for seed := uint64(1); seed <= 6 && !found; seed++ {
		m, gc := newRT(16<<10, 96<<10, true)
		tr := attach(t, m, gc)
		d := gctest.NewDriver(m, int64(seed))
		in := faultinject.New(m, faultinject.Adversarial(seed, 64, 2000))
		d.Inject = in.Tick
		if err := d.Step(3000); err != nil {
			if _, ok := core.AsOOM(err); !ok {
				t.Fatalf("seed %d: untyped error: %v", seed, err)
			}
		}
		evs := tr.Events()
		if err := trace.Validate(evs); err != nil {
			t.Fatalf("seed %d: trace not well-formed: %v", seed, err)
		}
		an, err := trace.Analyze(evs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gc.Stats().EmergencyCollections > 0 && an.PhaseSpans[simtime.PhaseEmergency] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no adversarial seed surfaced an emergency rung in the trace")
	}
}

// TestTracedRunIsBitIdenticalToUntraced pins the zero-interference claim:
// attaching a recorder must not change a single simulated timestamp or
// statistic, because trace emission charges nothing to the clock.
func TestTracedRunIsBitIdenticalToUntraced(t *testing.T) {
	run := func(traced bool) (simtime.Duration, core.GCStats, uint64, []simtime.Pause) {
		m, gc := newRT(32<<10, 1<<20, true)
		var tr *trace.Recorder
		if traced {
			tr = attach(t, m, gc)
		}
		d := gctest.NewDriver(m, 23)
		if err := d.Step(2500); err != nil {
			t.Fatal(err)
		}
		if traced {
			an, err := trace.Analyze(tr.Events())
			if err != nil {
				t.Fatal(err)
			}
			sameAsRecord(t, an.Pauses, gc.Pauses().Pauses)
		}
		return m.Clock.Now(), *gc.Stats(), d.Fingerprint(), gc.Pauses().Pauses
	}
	elapsed1, stats1, fp1, record1 := run(false)
	elapsed2, stats2, fp2, record2 := run(true)
	if !slices.Equal(record1, record2) {
		t.Errorf("tracing changed the collector's pause record")
	}
	if elapsed1 != elapsed2 {
		t.Errorf("tracing changed elapsed simulated time: %v vs %v", elapsed1, elapsed2)
	}
	if fp1 != fp2 {
		t.Errorf("tracing changed the heap fingerprint: %#x vs %#x", fp1, fp2)
	}
	// FlipCopied is a slice; compare the scalar counters field by field via
	// the recorded pause count and copy volumes.
	if stats1.PauseCount != stats2.PauseCount ||
		stats1.TotalBytesCopied() != stats2.TotalBytesCopied() ||
		stats1.LogScanned != stats2.LogScanned {
		t.Errorf("tracing changed GC statistics: %+v vs %+v", stats1, stats2)
	}
}
