//go:build !unix

package heap

// arenaMapped reports that newArena allocates the arena rather than mapping it.
const arenaMapped = false

// mapping is empty here: the arena is Go memory, freed with its Heap.
type mapping struct{}

// newArena gives h an arena of the given number of words, and the arena's
// dirty map, from the Go heap: without an anonymous mapping to draw on,
// make zeroes both up front. This is the only arena on these platforms.
func (h *Heap) newArena(words uint64) {
	h.arena = make([]Value, words)
	h.dirty = make([]uint64, (words+63)/64)
}
