package heap

import "math/bits"

// DirtyState reports how many dirty bits are set and how long the undo list
// is, for tests outside the package.
func DirtyState(h *Heap) (set, undo int) {
	for _, w := range h.dirty {
		set += bits.OnesCount64(w)
	}
	return set, len(h.undo)
}
