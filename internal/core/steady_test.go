package core_test

import (
	"slices"
	"testing"

	"repligc/internal/gctest"
	"repligc/internal/rig"
)

// TestSteadyStateAllocatesNothing holds the replicating collector to its
// host-memory discipline (DESIGN.md, "Collector host-memory discipline"):
// once a run is warm, a window of mutator work and the pauses it takes —
// minor and major increments, completion attempts put off and admitted,
// flips — and the FinishCycles that ends it make no Go heap allocation, under
// every replicating row of the collector table. The stop-and-copy rows have
// the twin in internal/stopcopy.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, row := range rig.Table {
		if row.StopCopy {
			continue
		}
		t.Run(row.Name, func(t *testing.T) {
			rt, err := rig.New(rig.Config{Collector: row})
			if err != nil {
				t.Fatal(err)
			}
			ring := gctest.NewRing(rt.Mutator)
			window := func() {
				ring.Run(100_000)
				if err := rt.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			st, rec, grec := rt.GC.Stats(), rt.GC.Pauses(), rt.Group.GroupPauses()
			window() // warm: the first major cycle grows every worklist
			if st.MajorCollections == 0 {
				t.Fatal("the warm-up ran no major collection")
			}
			before, pauses := *st, len(rec.Pauses)
			window()
			t.Logf("a window: %d minors, %d majors, %d attempts deferred, %d let through, %d pauses",
				st.MinorCollections-before.MinorCollections, st.MajorCollections-before.MajorCollections,
				st.Deferrals-before.Deferrals, st.Overruns-before.Overruns, len(rec.Pauses)-pauses)
			if st.MinorCollections == before.MinorCollections || st.MajorCollections == before.MajorCollections {
				t.Fatal("the window must hold minor and major collections")
			}
			if completions := st.MinorCollections + st.MajorCollections - before.MinorCollections - before.MajorCollections; completions <= st.Overruns-before.Overruns {
				t.Fatal("the window must hold a completion the admission gate let through within budget")
			}
			if row.Engine.IncrementalMinor && st.Deferrals == before.Deferrals {
				t.Fatal("the window must hold a completion attempt put off")
			}

			// The pause record, the group's and the flip record grow with the
			// run, amortised: room for the measured windows leaves only what
			// the pauses themselves allocate.
			const runs = 5
			grow := (runs + 1) * (len(rec.Pauses) - pauses)
			rec.Pauses = slices.Grow(rec.Pauses, grow)
			grec.Pauses = slices.Grow(grec.Pauses, grow)
			st.FlipCopied = slices.Grow(st.FlipCopied, grow)
			if n := testing.AllocsPerRun(runs, window); n != 0 {
				t.Errorf("a warm window allocates %.1f times, want 0", n)
			}
		})
	}
}
