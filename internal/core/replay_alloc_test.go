package core

// White-box zero-allocation assertions for the replay hot path: reprocessing
// a batch of logged mutations against already-replicated nursery objects —
// the work every incremental pause repeats — must perform no Go allocations.
// Each entry reads its target's forwarding word and reapplies a slot or a
// byte range in place; an allocation here would be a per-entry cost invisible
// to the simulated clock.

import (
	"testing"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// primeReplicatedMidCycle allocates a pointer array and a byte buffer in the
// nursery, anchors them from a logged old-generation object (so the log
// replay phase at the start of a minor cycle replicates them), and drives
// filler allocation until both are observed forwarded while still
// nursery-resident — an incremental minor cycle is active and their replicas
// receive log reapplication. A keep table gives each cycle enough survivors
// to span several budgeted pauses; retries because a flip can promote the
// pair before a pause boundary observes them.
func primeReplicatedMidCycle(t *testing.T, m *Mutator) (arr, buf heap.Value) {
	t.Helper()
	h := m.H
	anchor, ok := h.AllocIn(h.OldFrom(), heap.KindArray, 2)
	if !ok {
		t.Fatal("old-space anchor alloc failed")
	}
	keep := make([]heap.Value, 512)
	m.Roots.Register(rootSourceFunc(func(v RootVisitor) {
		v(&anchor)
		for i := range keep {
			v(&keep[i])
		}
	}))
	for attempt := 0; attempt < 64; attempt++ {
		arr = m.MustAlloc(heap.KindArray, 64)
		buf = m.MustAllocBytes(256)
		m.Set(anchor, 0, arr)
		m.Set(anchor, 1, buf)
		for i := 0; i < 4096; i++ {
			p := m.MustAlloc(heap.KindRecord, 6)
			keep[i%512] = p
			arr, buf = h.Load(anchor, 0), h.Load(anchor, 1)
			if h.Nursery.Contains(arr) && h.IsForwarded(arr) &&
				h.Nursery.Contains(buf) && h.IsForwarded(buf) {
				return arr, buf
			}
			if !h.Nursery.Contains(arr) || !h.Nursery.Contains(buf) {
				break // promoted by a flip; retry with fresh objects
			}
		}
	}
	t.Fatal("could not catch the pair replicated mid-cycle")
	return heap.Nil, heap.Nil
}

// rootSourceFunc adapts a function to RootSource for the test fixtures.
type rootSourceFunc func(RootVisitor)

func (f rootSourceFunc) VisitRoots(v RootVisitor) { f(v) }

// TestReplayBatchPathZeroAllocs reprocesses a fixed window of the mutation
// log — word stores and a byte-range store against replicated nursery
// objects — and asserts the replay path allocates nothing per batch.
func TestReplayBatchPathZeroAllocs(t *testing.T) {
	h := heap.New(heap.Config{
		NurseryBytes:    32 << 10,
		NurseryCapBytes: 1 << 20,
		OldSemiBytes:    16 << 20,
	})
	m := NewMutator(h, simtime.NewClock(), simtime.Default1993(), LogAllMutations)
	c := NewReplicating(h, Config{
		NurseryBytes:        32 << 10,
		MajorThresholdBytes: 8 << 20,
		CopyLimitBytes:      4 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	})
	m.AttachGC(c)

	arr, buf := primeReplicatedMidCycle(t, m)

	// Append the batch once: a run of word stores to the array plus one
	// byte range. Mutator.Set may grow the log; the measured loop below only
	// re-reads it.
	start := c.minor.logCursor
	for i := 0; i < 32; i++ {
		m.Set(arr, i, heap.FromInt(int64(i)))
	}
	chunk := make([]byte, 128)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	m.SetByteRange(buf, 8, chunk)
	if m.Log.Len() == start {
		t.Fatal("mutations were not logged; the batch is empty")
	}

	// Warm once, then assert, with no budget to stop the replay.
	c.lift(0)
	c.minor.logCursor = start
	if _, err := c.processMinorLog(m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.minor.logCursor = start
		if _, err := c.processMinorLog(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("replay batch path allocates %.1f times per batch, want 0", n)
	}
	if c.stats.LogReapplied == 0 {
		t.Fatal("no entries were re-applied; the assertion is vacuous")
	}
}
