package heap_test

import (
	"testing"

	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/rig"
)

// TestMajorFlipReleasesFromSpace runs the torture driver under the
// replicating collector and the stop-and-copy oracle, then finishes their
// cycles: right after each major flip, no page wholly inside the discarded
// space's used extent may be resident, and the live graph must still
// verify. Under rt the run's one major completes only in FinishCycles.
func TestMajorFlipReleasesFromSpace(t *testing.T) {
	for _, c := range []rig.Collector{rig.RT, rig.SC} {
		t.Run(c.Name, func(t *testing.T) {
			rt, err := rig.New(rig.Config{
				Collector:    c,
				Params:       rig.Params{NBytes: 64 << 10, OBytes: 256 << 10, LBytes: 32 << 10},
				OldSemiBytes: 4 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			h, d := rt.Heap, gctest.NewDriver(rt.Mutator, 5)
			flips := 0
			run := func(step func() error) {
				from := h.OldFrom()
				lo, next := from.Lo, from.Next
				if err := step(); err != nil {
					t.Fatal(err)
				}
				if h.OldFrom() == from {
					return
				}
				flips++
				if res, pages := heap.ResidentPages(t, h, lo, next); pages == 0 || res != 0 {
					t.Fatalf("flip %d: %d of %d pages of the discarded space are resident, want none of some", flips, res, pages)
				}
			}
			for i := 0; i < 60_000; i++ {
				run(func() error { return d.Step(1) })
			}
			run(func() error { return rt.GC.FinishCycles(rt.Mutator) })
			if flips == 0 {
				t.Fatal("no major flip")
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
