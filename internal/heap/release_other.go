//go:build !linux

package heap

// release keeps every page here: only linux has madvise in package syscall,
// and where the arena is Go memory it cannot be handed back in part.
func (h *Heap) release(lo, hi uint64) {}
