package core

import (
	"repligc/internal/artifact"
	"repligc/internal/heap"
)

// graphDigest is one walk's state: the FNV-1a hash and the visit-order ids
// that stand in for addresses.
type graphDigest struct {
	m    *Mutator
	hash artifact.Hash64
	ids  map[heap.Value]uint64
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
	g := graphDigest{m: m, hash: artifact.NewHash64(), ids: make(map[heap.Value]uint64)}
	enumerate(g.hash.Word, g.walk)
	return uint64(g.hash)
}

func (g *graphDigest) walk(v heap.Value) {
	switch {
	case v == heap.Nil:
		g.hash.Word(1)
	case v.IsInt():
		g.hash.Word(2)
		g.hash.Word(uint64(v.Int()))
	default:
		if id, ok := g.ids[v]; ok {
			g.hash.Word(3)
			g.hash.Word(id)
			return
		}
		g.ids[v] = uint64(len(g.ids) + 1)
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
			g.walk(g.m.Get(v, i))
		}
	}
}
