//go:build !unix

package heap

// arenaMapped reports that newArena allocates the arena rather than mapping it.
const arenaMapped = false

// mapping is empty here: the arena is Go memory, freed with its Heap.
type mapping struct{}

// newArena gives h an arena of the given number of words, and the arena's
// dirty map and undo list and the given number of to-space mark words, from
// the Go heap: without an anonymous mapping to draw on, make zeroes them up
// front. This is the only arena on these platforms.
func (h *Heap) newArena(words, marks uint64) {
	dirty := (words + 63) / 64
	h.arena = make([]Value, words)
	h.dirty = make([]uint64, dirty)
	h.marks = make([]uint64, marks)
	h.undo = make([]uint32, 0, dirty)
}
