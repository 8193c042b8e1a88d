package core

import (
	"testing"

	"repligc/internal/heap"
)

// hiddenChain builds, in old from-space, a chain of n immutable records, each
// holding the next record in slot 1 and in slot 0 its index, boxed in a fresh
// ref cell for every refEvery-th record. It roots the head and starts a major
// with the head replicated, and returns the records' originals in chain order.
func hiddenChain(t *testing.T, m *Mutator, c *Replicating, n, refEvery int) []heap.Value {
	t.Helper()
	h := m.H
	recs := make([]heap.Value, n)
	next := heap.Nil
	for i := n - 1; i >= 0; i-- {
		rec, ok := h.AllocIn(h.OldFrom(), heap.KindRecord, 2)
		if !ok {
			t.Fatal("old-space allocation failed")
		}
		h.Store(rec, 0, heap.FromInt(int64(i)))
		if i%refEvery == 0 {
			ref, ok := h.AllocIn(h.OldFrom(), heap.KindRef, 1)
			if !ok {
				t.Fatal("old-space allocation failed")
			}
			h.Store(ref, 0, heap.FromInt(int64(i)))
			h.Store(rec, 0, ref)
		}
		h.Store(rec, 1, next)
		recs[i], next = rec, rec
	}
	m.PushHandle(recs[0])
	c.startMajor(m)
	if _, err := c.replicate(m, &c.major, recs[0]); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestExposeWalksTheScannedPart: exposing the head of a hidden chain of
// immutable replicas exposes the whole chain, transitively, and leaves every
// exposed replica's slots aimed at exposed replicas and originals, whatever
// the cursor had scanned when the head was exposed — all of the chain, the
// head's first slot, or nothing. Every ref cell's slot gets its original back
// and waits on the flip's worklist; every record's stays on the next replica;
// the ref cells' replicas stay hidden; and the flip hands the mutator the
// replicas.
func TestExposeWalksTheScannedPart(t *testing.T) {
	const n = 50
	for _, c := range []struct {
		name string
		scan func(m *Mutator, gc *Replicating) // how far the cursor gets before the head is exposed
	}{
		{"scanned", func(m *Mutator, gc *Replicating) { gc.scan(m, &gc.major) }},
		{"partly-scanned", func(m *Mutator, gc *Replicating) {
			// The head's header and first slot, and the copy of its ref
			// cell that slot sets off: the cursor stops at the second slot.
			gc.deadline = m.Clock.Now() + 2*m.Cost.ScanWord + 2*m.Cost.CopyWord
			gc.scan(m, &gc.major)
			gc.deadline = 0
			if gc.major.scan != uint64(gc.h.ForwardAddr(m.HandleVal(0)))>>3-1 || gc.major.scanSlot != 1 {
				t.Fatalf("the cursor stopped at word %#x slot %d, not in the head", gc.major.scan, gc.major.scanSlot)
			}
		}},
		{"unscanned", func(*Mutator, *Replicating) {}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, gc := auditMutator(t, Config{NurseryBytes: 128 << 10, CopyLimitBytes: 4 << 10, IncrementalMinor: true, IncrementalMajor: true})
			h := m.H
			recs := hiddenChain(t, m, gc, n, 1)
			c.scan(m, gc)
			head := h.ForwardAddr(recs[0])
			if !gc.HiddenReplica(head) {
				t.Fatal("a fresh immutable replica is not hidden")
			}
			if !gc.expose(m, head, recs[0]) {
				t.Fatal("an unbudgeted walk stopped")
			}
			if done, err := gc.scan(m, &gc.major); !done || err != nil {
				t.Fatalf("scan: done %v, err %v", done, err)
			}
			if len(gc.major.walk) != 0 {
				t.Fatalf("%d jobs left on the walk's stack", len(gc.major.walk))
			}
			for i, r := range recs {
				rr, ref := h.ForwardAddr(r), h.Load(r, 0)
				if gc.HiddenReplica(rr) {
					t.Fatalf("record %d's replica is still hidden: the walk is not transitive", i)
				}
				if got := h.Load(rr, 0); got != ref {
					t.Errorf("record %d's replica holds %#x in its ref slot, want the original %#x", i, uint64(got), uint64(ref))
				}
				if !h.IsForwarded(ref) || !gc.HiddenReplica(h.ForwardAddr(ref)) {
					t.Errorf("record %d's ref cell has no hidden replica", i)
				}
				if i+1 < n && h.Load(rr, 1) != h.ForwardAddr(recs[i+1]) {
					t.Errorf("record %d's replica lost the next record's replica", i)
				}
			}
			if len(gc.major.worklist) != n {
				t.Errorf("%d slots queued for the flip, want the %d ref slots", len(gc.major.worklist), n)
			}
			holder, _ := h.AllocIn(h.OldTo(), heap.KindArray, 1)
			h.Store(holder, 0, head)
			m.PushHandle(holder)
			if err := AuditHeap(m); err != nil {
				t.Fatalf("audit with a visible slot on the exposed head: %v", err)
			}

			// The completion pass first, as attempt runs it: the flip redirects the roots it found.
			roots, done, err := gc.scanRoots(m, &gc.major, m.Roots.Slots())
			if !done || err != nil {
				t.Fatalf("root pass: done %v, err %v", done, err)
			}
			if err := gc.flip(m, &gc.major, roots); err != nil {
				t.Fatal(err)
			}
			for i, v := 0, m.HandleVal(0); i < n; i, v = i+1, h.Load(v, 1) {
				ref := h.Load(v, 0)
				if !h.OldFrom().Contains(v) || !h.OldFrom().Contains(ref) || h.Load(ref, 0) != heap.FromInt(int64(i)) {
					t.Fatalf("after the flip record %d is %#x and its ref cell %#x", i, uint64(v), uint64(ref))
				}
			}
		})
	}
}

// TestExposeLongChainAcrossPauses: a visible slot that keeps being aimed at the
// head of a long hidden chain exposes it a budget at a time. The walk spans
// several pauses, none longer than the pause bound; until it has drained the
// slot keeps the head's original; the audit holds after every pause; and once
// the walk is done the slot is redirected to the head's replica.
func TestExposeLongChainAcrossPauses(t *testing.T) {
	cfg := Config{NurseryBytes: 128 << 10, CopyLimitBytes: 4 << 10, IncrementalMinor: true, IncrementalMajor: true}
	m, gc := auditMutator(t, cfg)
	h := m.H
	const n, refEvery = 4000, 64 // 8 000 slots to walk against a budget of 1 024 scanned words
	recs := hiddenChain(t, m, gc, n, refEvery)
	head := h.ForwardAddr(recs[0])
	gc.scan(m, &gc.major)
	holder, _ := h.AllocIn(h.OldTo(), heap.KindArray, 1)
	hh := m.PushHandle(holder)
	walked, redirected := 0, false
	for round := 0; round < 64 && gc.major.active && !redirected; round++ {
		m.Set(m.HandleVal(hh), 0, recs[0])
		if err := gc.CollectForAlloc(m, 0); err != nil {
			t.Fatal(err)
		}
		if err := AuditHeap(m); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		v := h.Load(m.HandleVal(hh), 0)
		if len(gc.major.walk) > 0 {
			walked++
			if v != recs[0] {
				t.Fatalf("round %d: the slot holds %#x while the walk is unfinished, want the original", round, uint64(v))
			}
		}
		redirected = v == head
	}
	if walked < 3 || !redirected {
		t.Fatalf("the walk was unfinished after %d pauses, then the slot was redirected: %v; want at least 3 and true", walked, redirected)
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.CheckPauseBound(m.Cost, gc.Pauses().Pauses); err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); st.Overruns != 0 {
		t.Errorf("%d completion attempts let through over budget", st.Overruns)
	}
	for i, v := 0, m.HandleVal(0); i < n; i, v = i+1, h.Load(v, 1) {
		if x := h.Load(v, 0); i%refEvery == 0 && h.Load(x, 0) != heap.FromInt(int64(i)) || i%refEvery != 0 && x != heap.FromInt(int64(i)) {
			t.Fatalf("after the flip record %d holds %#x", i, uint64(x))
		}
	}
}

// TestDigestNamesAReplicaAsItsOriginal: an immutable original reachable
// through two visible slots digests the same before and after one of the
// slots is redirected to its exposed replica. The mutator reads one object
// through both, so the fingerprint must not see the redirect.
func TestDigestNamesAReplicaAsItsOriginal(t *testing.T) {
	m, gc := auditMutator(t, Config{NurseryBytes: 128 << 10, CopyLimitBytes: 4 << 10, IncrementalMinor: true, IncrementalMajor: true})
	h := m.H
	recs := hiddenChain(t, m, gc, 8, 3)
	holder, ok := h.AllocIn(h.OldFrom(), heap.KindArray, 2)
	if !ok {
		t.Fatal("old-space allocation failed")
	}
	h.Store(holder, 0, recs[0])
	h.Store(holder, 1, recs[0])
	hh := m.PushHandle(holder)
	digest := func() uint64 {
		return m.GraphDigest(func(_ func(uint64), walk func(heap.Value)) { walk(m.HandleVal(hh)) })
	}
	before := digest()
	head := h.ForwardAddr(recs[0])
	if !gc.expose(m, head, recs[0]) {
		t.Fatal("an unbudgeted walk stopped")
	}
	h.Store(holder, 1, head)
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit after the redirect: %v", err)
	}
	if after := digest(); after != before {
		t.Errorf("the digest moved from %016x to %016x when a slot was redirected to its original's exposed replica", before, after)
	}
}
