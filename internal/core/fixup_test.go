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
		if len(c.fixups) != 1 {
			t.Fatalf("major %d: the slot offered three times is queued %d times, want once", major, len(c.fixups))
		}
		if err := c.majorFlip(m); err != nil {
			t.Fatal(err)
		}
	}
}
