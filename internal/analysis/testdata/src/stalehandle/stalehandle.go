// Package fixstale exercises the stalehandle rule: a raw heap.Value held
// across a may-flip call is stale — a replication flip may retire the space
// it points into — and must be re-derived from a root or allowed with the
// invariant that keeps it good.
package fixstale

import (
	"repligc/internal/core"
	"repligc/internal/heap"
)

// buildPair holds p raw across MustAlloc (which may run a collection and
// flip): the read of p in Init is flagged.
func buildPair(m *core.Mutator, p heap.Value) heap.Value {
	q := m.MustAlloc(heap.KindRecord, 2)
	m.Init(q, 0, p)
	return q
}

// buildPairRooted re-derives the value through a registered handle after the
// may-flip call: nothing is flagged.
func buildPairRooted(m *core.Mutator, p heap.Value) heap.Value {
	h := m.PushHandle(p)
	q := m.MustAlloc(heap.KindRecord, 2)
	m.Init(q, 0, m.HandleVal(h))
	return q
}

// buildPairVouched carries p across the flip on purpose, with the invariant
// that makes it sound as the allow's reason.
func buildPairVouched(m *core.Mutator, p heap.Value) heap.Value {
	q := m.MustAlloc(heap.KindRecord, 2)
	//gclint:allow stalehandle -- fixture: p is an immediate-only protocol word in this call chain, never a movable pointer
	m.Init(q, 0, p)
	return q
}

// fill is the loop-carried form: p is written before the loop and read on
// every iteration after the may-flip allocation inside it.
func fill(m *core.Mutator, p heap.Value, n int) {
	for i := 0; i < n; i++ {
		q := m.MustAlloc(heap.KindRecord, 1)
		m.Init(q, 0, p)
	}
}

// observe reads p at the top of each iteration, before the may-flip
// allocation later in the body: only the loop-carried clause catches the
// stale read on the second time around.
func observe(m *core.Mutator, p heap.Value, n int) {
	for i := 0; i < n; i++ {
		m.SetHandleVal(0, p)
		_ = m.MustAlloc(heap.KindRecord, 1)
	}
}

// fillInts stores an immediate: immediates are values, not pointers, and a
// flip cannot invalidate them, so nothing is flagged.
func fillInts(m *core.Mutator, n int) {
	v := heap.FromInt(42)
	for i := 0; i < n; i++ {
		q := m.MustAlloc(heap.KindRecord, 1)
		m.Init(q, 0, v)
	}
}

// rewriteAfterFlip re-assigns p from a rooted source after the may-flip
// call; the read uses the fresh value, so nothing is flagged.
func rewriteAfterFlip(m *core.Mutator, p heap.Value) heap.Value {
	h := m.PushHandle(p)
	q := m.MustAlloc(heap.KindRecord, 2)
	p = m.HandleVal(h)
	m.Init(q, 0, p)
	return q
}
