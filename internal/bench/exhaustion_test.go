package bench

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/rig"
)

// exhaustionScale is small enough that the matrix below stays fast but
// still allocates far more than the tightest heaps in the ladder.
func exhaustionScale() Scale {
	return Scale{PrimesCount: 40, SortSize: 800, SortDepth: 2, CompModules: 3, CompReps: 4}
}

// TestExhaustionMatrix tightens the heap across every workload × collector
// configuration until the run dies of memory exhaustion, and asserts the
// robustness contract each time: the failure is the typed *core.OOMError
// (never a Go panic), the post-OOM heap still passes a full audit, and the
// collector's statistics remain coherent.
func TestExhaustionMatrix(t *testing.T) {
	// Old-semispace ladder, descending. The smallest rungs cannot hold the
	// workloads' live data, so every (workload, config) pair is guaranteed
	// to reach OOM before the ladder ends.
	ladder := []int64{2 << 20, 512 << 10, 128 << 10, 48 << 10, 16 << 10, 6 << 10}
	params := Params{NBytes: 32 << 10, OBytes: 64 << 10, LBytes: 8 << 10}

	for _, wl := range Workloads {
		name := wl.Name
		for _, cfg := range AllPaperConfigs {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				w, err := WorkloadByName(name, exhaustionScale())
				if err != nil {
					t.Fatal(err)
				}
				sawOOM := false
				for _, oldSemi := range ladder {
					rt, err := rig.New(rig.Config{
						Collector:       cfg,
						Params:          params,
						OldSemiBytes:    oldSemi,
						NurseryCapBytes: 8 * params.NBytes,
					})
					if err != nil {
						t.Fatal(err)
					}
					runErr := func() (err error) {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("old=%dKB: run panicked instead of returning a typed error: %v",
									oldSemi>>10, r)
							}
						}()
						if _, err := w.Run(rt.Mutator); err != nil {
							return err
						}
						return rt.GC.FinishCycles(rt.Mutator)
					}()

					st := rt.GC.Stats()
					rec := rt.GC.Pauses()
					if len(rec.Pauses) != st.PauseCount {
						t.Fatalf("old=%dKB: %d recorded pauses but PauseCount=%d",
							oldSemi>>10, len(rec.Pauses), st.PauseCount)
					}
					if st.EmergencyCollections < 0 || st.ForcedCompletion < 0 {
						t.Fatalf("old=%dKB: negative degradation counters: %+v", oldSemi>>10, st)
					}
					if err := core.AuditHeap(rt.Mutator); err != nil {
						t.Fatalf("old=%dKB: heap not auditable after run (err=%v): %v",
							oldSemi>>10, runErr, err)
					}
					if runErr == nil {
						continue
					}
					oom, ok := core.AsOOM(runErr)
					if !ok {
						t.Fatalf("old=%dKB: failure is not a typed OOM: %v", oldSemi>>10, runErr)
					}
					if oom.Request <= 0 || oom.Limit < 0 || oom.Free < 0 {
						t.Fatalf("old=%dKB: incoherent OOM fields: %+v", oldSemi>>10, oom)
					}
					sawOOM = true
				}
				if !sawOOM {
					t.Fatalf("no rung of the ladder exhausted %s under %s", name, cfg.Name)
				}
			})
		}
	}
}
