package heap_test

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// TestParallelGroupLeavesDirtyMapAlone pins what makes the dirty map's undo
// list safe as unsynchronised shared state on Heap: goroutine-backed members
// run with NaiveBarrier, so between pauses nobody marks (and the list is
// never appended to from two goroutines — `make race` watches that), and
// BeginLogEpoch runs only with the world stopped. After the workers exit,
// with their stores since the last pause still unconsumed in the logs, the
// map must be all-clean. One coalescing store then shows the probe can see a
// mark at all.
func TestParallelGroupLeavesDirtyMapAlone(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 64 << 10, NurseryCapBytes: 1 << 20, OldSemiBytes: 4 << 20})
	pg := core.NewParallelGroup(h, simtime.Default1993(), core.LogAllMutations, 4)
	gc := core.NewReplicating(h, core.Config{
		NurseryBytes:        64 << 10,
		MajorThresholdBytes: 512 << 10,
		CopyLimitBytes:      32 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	})
	pg.AttachGC(gc)

	fns := make([]func(*core.Mutator) error, len(pg.G.Members))
	for i, m := range pg.G.Members {
		d := gctest.NewDriver(m, int64(7+i))
		fns[i] = func(*core.Mutator) error {
			for k := 0; k < 400; k++ {
				pg.Safepoint()
				if err := d.Step(10); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for i, err := range pg.Run(fns) {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	var logWrites int64
	for _, m := range pg.G.Members {
		logWrites += m.LogWrites
	}
	if st := gc.Stats(); logWrites == 0 || st.MinorCollections == 0 {
		t.Fatalf("run too small to mean anything: %d log writes, %d minor collections", logWrites, st.MinorCollections)
	}
	if set, undo := heap.DirtyState(h); set != 0 || undo != 0 {
		t.Fatalf("parallel run left %d dirty bits and %d undo entries, want none", set, undo)
	}

	old, ok := h.AllocIn(h.OldFrom(), heap.KindRef, 1)
	if !ok {
		t.Fatal("old space full")
	}
	m := pg.G.Members[0]
	m.NaiveBarrier = false
	m.Set(old, 0, heap.FromInt(1))
	if set, undo := heap.DirtyState(h); set != 1 || undo != 1 {
		t.Fatalf("one coalescing store left %d dirty bits and %d undo entries, want 1 and 1", set, undo)
	}
}
