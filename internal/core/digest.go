package core

import (
	"sync/atomic"

	"repligc/internal/artifact"
	"repligc/internal/heap"
)

// graphDigest is one walk's state: the FNV-1a hash and the visit-order ids
// that stand in for addresses. mix and walk are its two methods as function
// values, made once with the table, so handing them to enumerate allocates
// nothing.
type graphDigest struct {
	m    *Mutator
	hash artifact.Hash64
	ids  heap.Visits
	mix  func(uint64)
	walk func(heap.Value)
}

// spareDigest is the visit table parked between walks. A walk takes it or,
// when another walk holds it, makes a fresh one; it is cleared and parked
// again on the way out, and dropped if the walk panics. One slot, not a
// sync.Pool, as with the spare compiler: a pool empties at every Go GC.
var spareDigest atomic.Pointer[graphDigest]

func newGraphDigest() *graphDigest {
	g := new(graphDigest)
	g.mix, g.walk = g.hash.Word, g.visit
	return g
}

// GraphDigest is the repository's one reachable-graph fingerprint: an
// FNV-1a digest of everything reachable from the roots that enumerate
// presents, walked semantically — objects are named by visit order, never by
// address — so two collectors that computed the same graph produce the same
// digest however they laid the heap out. It is the cross-collector oracle of
// the determinism matrices (gctest.Driver.Fingerprint, the serving report's
// heap_fingerprint).
//
// enumerate is the only parameter: it calls walk on each root in a fixed
// order and may mix structure of its own (a cohort boundary, a count)
// between them. The walk reads through the Mutator (Header follows
// forwarding), so it is safe whenever the mutator is, including between
// incremental collection steps; it charges header checks to the clock like
// any mutator read.
func (m *Mutator) GraphDigest(enumerate func(mix func(uint64), walk func(heap.Value))) uint64 {
	g := spareDigest.Swap(nil)
	if g == nil {
		g = newGraphDigest()
	}
	sum := g.run(m, enumerate)
	spareDigest.Store(g)
	return sum
}

// run digests one enumeration, then empties the table and drops the mutator
// so a parked table pins no heap.
func (g *graphDigest) run(m *Mutator, enumerate func(mix func(uint64), walk func(heap.Value))) uint64 {
	g.m, g.hash = m, artifact.NewHash64()
	enumerate(g.mix, g.walk)
	g.m = nil
	g.ids.Clear()
	return uint64(g.hash)
}

func (g *graphDigest) visit(v heap.Value) {
	switch {
	case v == heap.Nil:
		g.hash.Word(1)
	case v.IsInt():
		g.hash.Word(2)
		g.hash.Word(uint64(v.Int()))
	default:
		if id, ok := g.ids.Visit(v, uint32(g.ids.Len()+1)); ok {
			g.hash.Word(3)
			g.hash.Word(uint64(id))
			return
		}
		hdr := g.m.Header(v)
		g.hash.Word(4)
		g.hash.Word(uint64(hdr.Kind()))
		g.hash.Word(uint64(hdr.Len()))
		if !hdr.Kind().HasPointers() {
			for i := 0; i < hdr.Len(); i++ {
				g.hash.Word(uint64(g.m.GetByte(v, i)))
			}
			return
		}
		for i := 0; i < hdr.Len(); i++ {
			g.visit(g.m.Get(v, i))
		}
	}
}
