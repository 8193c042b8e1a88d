package heap

// The to-space marks: a bit for each word of one old semispace, counted from
// the first word of whichever semispace is the to-space, with which a major
// collector tells some of the objects it puts there from the rest
// (internal/core marks the replicas the mutator may reach before the flip).
// Like the dirty map, the bits live in the arena's mapping: only the pages of
// marked words ever become resident, and marking never allocates. A mark
// belongs to the to-space role, not to the word, so a collector clears the
// marks (ClearMarks) before it fills a fresh to-space, at a cost proportional
// to the extent it marked.

// markBit locates object p's mark: p's header word, counted from the
// to-space's first word, as a map word and a mask.
func (h *Heap) markBit(p Value) (uint64, uint64) {
	off := p.index() - 1 - h.oldTo.Lo
	return off >> 6, 1 << (off & 63)
}

// Marked reports whether object p, in the old to-space, is marked.
func (h *Heap) Marked(p Value) bool {
	w, bit := h.markBit(p)
	return h.marks[w]&bit != 0
}

// Mark marks object p, in the old to-space, and reports whether it was
// unmarked.
func (h *Heap) Mark(p Value) bool {
	w, bit := h.markBit(p)
	if h.marks[w]&bit != 0 {
		return false
	}
	h.marks[w] |= bit
	h.markHi = max(h.markHi, w+1)
	return true
}

// ClearMarks unmarks every object, zeroing the map words up to the highest
// one marked.
func (h *Heap) ClearMarks() {
	clear(h.marks[:h.markHi])
	h.markHi = 0
}
