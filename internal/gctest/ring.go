package gctest

import (
	"repligc/internal/core"
	"repligc/internal/heap"
)

// Ring is a steady mutator program for the allocation tests. It keeps two
// arrays as its roots: RingSlots slots, into which every step stores a fresh
// two-slot object, and ringCells mutable refs made once, which the fresh
// objects point at and every fourth step writes. Every fourth fresh object
// is itself a ref, the rest are records. So the live data stays the newest
// RingSlots objects and the cells: every minor collection promotes, a major
// has an old generation to copy, every store is logged, and an object
// promoted while a major is active refers to a mutable old one, which gives
// the major flip a worklist. Unlike Driver it keeps no shadow model, so it
// allocates nothing on the Go heap once built.
type Ring struct {
	m            *core.Mutator
	slots, cells heap.Value
	i            int
}

// RingSlots is the length of a Ring's array: how many fresh objects it keeps
// live.
const RingSlots = 4096

// ringCells is how many refs the fresh objects point at.
const ringCells = 64

// NewRing allocates the arrays and cells on m and registers them as roots.
func NewRing(m *core.Mutator) *Ring {
	r := &Ring{m: m}
	m.Roots.Register(r)
	r.slots = m.MustAlloc(heap.KindArray, RingSlots)
	r.cells = m.MustAlloc(heap.KindArray, ringCells)
	for i := range ringCells {
		m.Set(r.cells, i, m.MustAlloc(heap.KindRef, 1))
	}
	return r
}

// VisitRoots implements core.RootSource.
func (r *Ring) VisitRoots(v core.RootVisitor) {
	v(&r.slots)
	v(&r.cells)
}

// Run takes n steps.
func (r *Ring) Run(n int) {
	m := r.m
	for range n {
		cell := m.Get(r.cells, r.i%ringCells)
		k := heap.KindRecord
		if r.i%4 == 0 {
			k = heap.KindRef
			m.Set(cell, 0, heap.FromInt(int64(r.i)))
		}
		p := m.MustAlloc(k, 2)
		m.Init(p, 0, heap.FromInt(int64(r.i)))
		m.Init(p, 1, m.Get(r.cells, r.i%ringCells))
		m.Set(r.slots, r.i%RingSlots, p)
		r.i++
	}
}
