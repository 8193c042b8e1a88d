package core

import (
	"testing"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// TestFixupQueuedAgainNextMajor pins the reuse of the fixup dedup set across
// majors: within one major a slot is queued once however often it is
// offered, and the same slot in a later major is queued again. The flips
// swap the semispaces, so the slot at the bottom of to-space is the same
// arena word every second major: a set that outlived its major would drop
// it there, and that major's flip would leave the slot on a from-space
// original.
func TestFixupQueuedAgainNextMajor(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 32 << 10, NurseryCapBytes: 1 << 20, OldSemiBytes: 1 << 20})
	m := NewMutator(h, simtime.NewClock(), simtime.Default1993(), LogAllMutations)
	c := NewReplicating(h, Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 256 << 10, CopyLimitBytes: 4 << 10, IncrementalMinor: true, IncrementalMajor: true})
	m.AttachGC(c)
	for major := range 3 {
		c.startMajor(m)
		holder, ok := h.AllocIn(h.OldTo(), heap.KindArray, 4) // at the bottom of to-space each time
		if !ok {
			t.Fatal("to-space allocation failed")
		}
		for range 3 {
			c.queueFixup(fixup{obj: holder, slot: 2})
		}
		if len(c.major.worklist) != 1 {
			t.Fatalf("major %d: the slot offered three times is queued %d times, want once", major, len(c.major.worklist))
		}
		if err := c.flip(m, &c.major); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMinorFlipRelogsForMajor pins the re-log rule of the flip's repoint: a
// minor flip that re-points a slot of an old from-space holder while a major
// is active logs the store again, for the major. Here the major has read the
// store's entry while the holder was unreplicated and then copied the holder
// with the nursery pointer in it, as a micro-pause's increment may; only the
// re-logged entry brings the replica the promoted object before the major
// flip hands the replica to the mutator.
func TestMinorFlipRelogsForMajor(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 32 << 10, NurseryCapBytes: 1 << 20, OldSemiBytes: 1 << 20})
	m := NewMutator(h, simtime.NewClock(), simtime.Default1993(), LogAllMutations)
	c := NewReplicating(h, Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 256 << 10, IncrementalMinor: true, IncrementalMajor: true})
	m.AttachGC(c)
	holder, ok := h.AllocIn(h.OldFrom(), heap.KindArray, 2)
	if !ok {
		t.Fatal("old-space allocation failed")
	}
	root := m.PushHandle(holder)
	c.startMajor(m)
	young := m.MustAlloc(heap.KindArray, 1)
	m.Init(young, 0, heap.FromInt(42))
	m.Set(holder, 1, young)
	if done, err := c.processMajorLog(m, false); !done || err != nil {
		t.Fatalf("major log: done %v, err %v", done, err)
	}
	if _, err := c.replicate(m, &c.major, holder); err != nil {
		t.Fatal(err)
	}

	// One unbudgeted pause: the minor completes and flips, then the major.
	if err := c.CollectForAlloc(m, 0); err != nil {
		t.Fatal(err)
	}
	if c.major.active || c.stats.MajorCollections != 1 {
		t.Fatalf("major active %v after %d major flips, want one flip", c.major.active, c.stats.MajorCollections)
	}
	got := m.HandleVal(root)
	if got == holder {
		t.Fatal("the root still names the from-space holder")
	}
	v := m.Get(got, 1)
	if !h.OldFrom().Contains(v) || m.Get(v, 0) != heap.FromInt(42) {
		t.Fatalf("the holder's slot holds %#x after the major flip, want the promoted object", uint64(v))
	}
}
