package bench

import (
	"errors"
	"fmt"
	"testing"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// TestCompositionMatrix is the construction half of ROADMAP 2(a): every
// collector the table names × group size × recorder × checkpointer, each cell
// a short shadow-model run on the engine golden's tight heap, built by the
// one constructor. A cell either is refused with the typed error — exactly
// the cells DESIGN.md, "One runtime", lists — or honours everything it was
// given: the run finishes, every member's shadow graph and the heap audit
// hold, the recorder holds a valid trace that did not move the run by a
// nanosecond and says of every pause what the collector's own record says,
// the writer committed, and the reachable graph is the same one under all
// nine collectors. Properties only; the absolute numbers are
// engine_golden.txt's business.
func TestCompositionMatrix(t *testing.T) {
	tight := engineShapes[0]
	// unsupported is DESIGN.md's list restricted to these axes.
	unsupported := func(c rig.Collector, members int, ckpt bool) bool {
		return ckpt && (c.StopCopy || members > 1)
	}
	cells, refusals := 0, 0
	for _, members := range []int{1, 2, 4} {
		var graph uint64 // the first cell's fingerprint; every other must match
		for _, coll := range rig.Table {
			for _, ckpt := range []bool{false, true} {
				var lines [2]string
				for traced := 0; traced < 2; traced++ {
					cells++
					label := fmt.Sprintf("%s members=%d traced=%d checkpointed=%v", coll.Name, members, traced, ckpt)
					rc := engineGoldenConfig(coll, tight.params)
					rc.Members = members
					if traced == 1 {
						rc.Trace = trace.NewRecorder(1 << 14)
					}
					var w *checkpoint.Writer
					if ckpt {
						w = checkpoint.NewWriter(checkpoint.Config{Dir: t.TempDir(), BudgetBytes: 8 << 10})
						rc.Checkpoint = w
					}
					rt, md, line, err := engineGoldenGroupCell(rc, tight.seed, 48)
					var refused *rig.UnsupportedError
					switch {
					case errors.As(err, &refused):
						if !unsupported(coll, members, ckpt) || refused.Field != "Checkpoint" || refused.Collector != coll.Name {
							t.Errorf("%s: refused, but not as listed: %v", label, err)
						}
						refusals++
						continue
					case err != nil:
						t.Errorf("%s: %v", label, err)
						continue
					case unsupported(coll, members, ckpt):
						t.Errorf("%s: built a runtime for a cell listed as unsupported", label)
					}
					lines[traced] = line
					if fp := md.Fingerprint(); graph == 0 {
						graph = fp
					} else if fp != graph {
						t.Errorf("%s: reachable graph %016x, the other collectors computed %016x", label, fp, graph)
					}
					if err := md.Verify(); err != nil {
						t.Errorf("%s: shadow check: %v", label, err)
					}
					for i, m := range rt.Group.Members {
						if err := core.AuditHeap(m); err != nil {
							t.Errorf("%s: member %d: %v", label, i, err)
						}
					}
					if rt.GC.Stats().MinorCollections == 0 {
						t.Errorf("%s: the run crossed no collection", label)
					}
					if rc.Trace != nil {
						if rc.Trace.Len() == 0 {
							t.Errorf("%s: the recorder was ignored", label)
						}
						if err := recordIsTrace(rt.GC.Pauses().Pauses, rc.Trace); err != nil {
							t.Errorf("%s: %v", label, err)
						}
					}
					if w != nil && w.Stats().Committed == 0 {
						t.Errorf("%s: the checkpointer was ignored: no epoch committed", label)
					}
				}
				if lines[0] != lines[1] {
					t.Errorf("%s members=%d checkpointed=%v: the recorder moved the run:\n off %s\n on  %s",
						coll.Name, members, ckpt, lines[0], lines[1])
				}
			}
		}
	}
	if cells != 108 || refusals != 40 {
		t.Fatalf("ran %d cells of which %d were typed refusals, want 108 and 40", cells, refusals)
	}
	t.Logf("construction plane: %d cells, %d run and hold their properties, %d typed refusals", cells, cells-refusals, refusals)
	compositionLargeObjects(t)
	compositionDeferredFlipFaults(t)
}

// recordIsTrace holds the collector's pause record against the flight
// recorder's events, each the other's oracle: the events are a valid trace
// with as many pause-begins as there are recorded pauses, and the pause list
// rebuilt from them alone equals the record in everything an event carries —
// start, length, kind, bytes copied, log entries, per-phase time and spans.
func recordIsTrace(record []simtime.Pause, tr *trace.Recorder) error {
	events := tr.Events()
	d, err := trace.Analyze(events)
	if err != nil {
		return err
	}
	begins := 0
	for _, e := range events {
		if e.Kind == trace.KindPauseBegin {
			begins++
		}
	}
	if tr.Dropped() != 0 || begins != len(record) || len(d.Pauses) != len(record) {
		return fmt.Errorf("%d pauses recorded, %d begun and %d ended in the trace (%d events dropped)", len(record), begins, len(d.Pauses), tr.Dropped())
	}
	for i, p := range record {
		traced := simtime.Pause{At: p.At, Length: p.Length, Kind: p.Kind, CopiedB: p.CopiedB, LogProcN: p.LogProcN,
			PhaseTime: p.PhaseTime, PhaseSpans: p.PhaseSpans}
		if d.Pauses[i] != traced {
			return fmt.Errorf("pause %d: the trace says %+v, the record %+v", i, d.Pauses[i], traced)
		}
	}
	return nil
}

// compositionLargeObjects is the matrix's large-object plane: every collector
// the table names × group size, each member's driver allocating pointer
// arrays and byte buffers of 12-24 KB — above the tight shape's split
// threshold (L/4 = 1 KB) and on both sides of N/2, so some start in the
// nursery and some are born old — and storing into them near both ends while
// they are being copied. The heap audit (AuditHeap, which ends in
// AuditScanned) runs after every round and the shadow check after every
// sixth, mid-collection, and the reachable graph at the end must be the one
// sc computed.
func compositionLargeObjects(t *testing.T) {
	tight := engineShapes[0]
	splits := int64(0)
	for _, members := range []int{1, 2, 4} {
		var graph uint64
		for _, coll := range rig.Table {
			label := fmt.Sprintf("%s members=%d large objects", coll.Name, members)
			rc := engineGoldenConfig(coll, tight.params)
			rc.Members = members
			rt, err := rig.New(rc)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			md, err := gctest.NewMultiDriver(rt.Group, tight.seed)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			for _, d := range md.Drivers {
				d.LargeEvery, d.LargeWords = 320, 1536
			}
			for round := 0; round < 48 && err == nil; round++ {
				if err = md.Step(60); err != nil {
					break
				}
				for i, m := range rt.Group.Members {
					if err = core.AuditHeap(m); err != nil {
						err = fmt.Errorf("round %d: member %d: %w", round, i, err)
						break
					}
				}
				if err == nil && round%6 == 5 {
					err = md.Verify()
				}
			}
			if err == nil {
				err = rt.Finish()
			}
			if err == nil {
				err = md.Verify()
			}
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			if fp := md.Fingerprint(); graph == 0 {
				graph = fp
			} else if fp != graph {
				t.Errorf("%s: reachable graph %016x, the other collectors computed %016x", label, fp, graph)
			}
			st := rt.GC.Stats()
			if st.MajorCollections == 0 {
				t.Errorf("%s: the run crossed no major collection", label)
			}
			if !coll.StopCopy && coll.Engine.IncrementalMajor && st.SplitCopies == 0 {
				t.Errorf("%s: no copy was split: the cell does not reach the in-flight state", label)
			}
			splits += st.SplitCopies
		}
	}
	t.Logf("large-object plane: 27 cells, %d copies split", splits)
}

// compositionDeferredFlipFaults is the matrix's fault plane for the admission
// gate (core.Replicating.deferAttempt): every collector with an incremental major ×
// group size {1, 4} × {force-complete, shrink-old}, each run driven one round
// at a time until a major flip has been put off and its cycle is still
// waiting, and then struck. Force-complete must end the cycle in budgeted
// pauses: the flip fits a pause that does nothing else, or is let through.
// Under shrink-old the next pause that looks at the headroom (a major-only
// micro-pause of rt-conc does not) must escalate — flip regardless of the
// gate, or surface the typed error — never wait. The shape is the paper's L
// over a 64 KB nursery of which half survives, so the pause a flip could run
// in is nearly always full; rt-conc with one member is left out, because its
// flips always fit (one driver's worklist against a budget of L/2). The heap
// audit runs after every round from the strike until the headroom is back and
// every thirty-second otherwise, the shadow check at the end, 24 rounds later.
func compositionDeferredFlipFaults(t *testing.T) {
	params := Params{NBytes: 64 << 10, OBytes: 256 << 10, LBytes: 100 << 10}
	const oldSemi = 4 << 20
	cells := 0
	for _, coll := range rig.Table {
		if coll.StopCopy || !coll.Engine.IncrementalMajor {
			continue
		}
		for _, members := range []int{1, 4} {
			if coll.Name == rig.RTConc.Name && members == 1 {
				continue
			}
			for _, fault := range []faultinject.Action{faultinject.ForceComplete, faultinject.ShrinkOld} {
				cells++
				label := fmt.Sprintf("%s members=%d %v while a flip is deferred", coll.Name, members, fault)
				rt, err := rig.New(rig.Config{Collector: coll, Params: params, OldSemiBytes: oldSemi, Members: members})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				md, err := gctest.NewMultiDriver(rt.Group, 1)
				if err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				repl := rt.GC.(*core.Replicating)
				st := rt.GC.Stats()
				struck, clamped, emergencies := false, false, 0
				last := 1200 / members // a run that has not met the state by then never will
				for round := 0; round < last && err == nil; round++ {
					pauses := st.PauseCount
					if err = md.Step(80); err != nil {
						if _, ok := core.AsOOM(err); !ok || !clamped {
							break
						}
						err = nil // typed exhaustion under the clamp: the run goes on
					}
					// A pause that redirected the roots — the minor flip — and put
					// an attempt off has put off the major's, the only one after a
					// minor flip; the cycle is waiting while it is still active.
					deferred := false
					for _, p := range rt.GC.Pauses().Pauses[pauses:] {
						deferred = deferred || p.Deferred && p.RootSlots > 0
					}
					if !struck && deferred && repl.CheckpointNow().MajorActive {
						struck, emergencies = true, st.EmergencyCollections
						majors, forced := st.MajorCollections, st.ForcedCompletion
						inj := faultinject.New(rt.Mutator, faultinject.Plan{Events: []faultinject.Event{{AtOp: 1, Action: fault}}})
						if err = inj.Tick(); err != nil {
							break
						}
						if clamped = fault == faultinject.ShrinkOld; clamped {
							last = round + 64 // the escalation's deadline
						} else {
							last = round + 24
							if !repl.CheckpointNow().Quiescent || st.MajorCollections != majors+1 || st.ForcedCompletion != forced {
								err = fmt.Errorf("force-complete left the deferred flip's cycle active, or had to force it (%d -> %d majors, %d -> %d forced completions)",
									majors, st.MajorCollections, forced, st.ForcedCompletion)
							}
						}
					}
					if clamped && st.EmergencyCollections > emergencies {
						clamped, last = false, round+24
						for _, sp := range []*heap.Space{rt.Heap.OldFrom(), rt.Heap.OldTo()} {
							sp.SetLimitBytes(oldSemi)
						}
					}
					// One member's audit walks the group's whole root set.
					if err == nil && (clamped || round%32 == 0) {
						if err = core.AuditHeap(rt.Mutator); err != nil {
							err = fmt.Errorf("round %d: %w", round, err)
						}
					}
				}
				switch {
				case err == nil && !struck:
					err = fmt.Errorf("no flip was ever deferred: the cell does not reach the state")
				case err == nil && clamped:
					err = fmt.Errorf("no pause escalated in the 64 rounds after the clamp")
				}
				if err == nil {
					err = rt.Finish()
				}
				if err == nil {
					err = md.Verify()
				}
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	}
	t.Logf("deferred-flip fault plane: %d cells", cells)
}
