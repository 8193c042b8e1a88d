package stopcopy_test

import (
	"slices"
	"testing"

	"repligc/internal/gctest"
	"repligc/internal/rig"
)

// TestSteadyStateAllocatesNothing is the stop-and-copy twin of internal/core's
// test of the same name: once a run is warm, a window of mutator work with its
// minor and major collections, and the FinishCycles that ends it, make no Go
// heap allocation, under every stop-and-copy row of the collector table.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, row := range rig.Table {
		if !row.StopCopy {
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
			window() // warm: through the first major collection
			if st.MajorCollections == 0 {
				t.Fatal("the warm-up ran no major collection")
			}
			before, pauses := *st, len(rec.Pauses)
			window()
			if st.MinorCollections == before.MinorCollections || st.MajorCollections == before.MajorCollections {
				t.Fatal("the window must hold minor and major collections")
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
