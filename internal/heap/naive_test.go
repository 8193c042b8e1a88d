package heap_test

import (
	"testing"

	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/rig"
)

// TestNaiveBarrierLeavesDirtyMapAlone pins that the dirty map is written by
// the coalescing barrier alone: members of a four-member group running with
// NaiveBarrier never mark, so after a run that logged and collected — with
// the stores since the last pause still unconsumed in the group's log — the
// map and its undo list are empty. One coalescing store then shows the probe
// can see a mark at all. (It lives outside package heap because core imports
// heap.)
func TestNaiveBarrierLeavesDirtyMapAlone(t *testing.T) {
	rt, err := rig.New(rig.Config{
		Collector:    rig.RT,
		Params:       rig.Params{NBytes: 64 << 10, OBytes: 512 << 10, LBytes: 32 << 10},
		OldSemiBytes: 4 << 20,
		Members:      4,
		NaiveBarrier: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, g := rt.Heap, rt.Group
	md, err := gctest.NewMultiDriver(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 400; round++ {
		if err := md.Step(10); err != nil {
			t.Fatal(err)
		}
	}
	var logWrites int64
	for _, m := range g.Members {
		logWrites += m.LogWrites
	}
	if st := rt.GC.Stats(); logWrites == 0 || st.MinorCollections == 0 {
		t.Fatalf("run too small to mean anything: %d log writes, %d minor collections", logWrites, st.MinorCollections)
	}
	if set, undo := heap.DirtyState(h); set != 0 || undo != 0 {
		t.Fatalf("naive-barrier run left %d dirty bits and %d undo entries, want none", set, undo)
	}

	old, ok := h.AllocIn(h.OldFrom(), heap.KindRef, 1)
	if !ok {
		t.Fatal("old space full")
	}
	m := g.Members[0]
	m.NaiveBarrier = false
	m.Set(old, 0, heap.FromInt(1))
	if set, undo := heap.DirtyState(h); set != 1 || undo != 1 {
		t.Fatalf("one coalescing store left %d dirty bits and %d undo entries, want 1 and 1", set, undo)
	}
}
