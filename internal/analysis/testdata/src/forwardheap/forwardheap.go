// Package fixforwardheap masquerades as a collector package and exercises
// the forward rule's raw-read-path restriction: even inside the collectors,
// Get*/Load* functions must not follow forwarding pointers.
package fixforwardheap

import "repligc/internal/heap"

// GetSlot is on the raw read path (Get prefix): observing forwarding here
// would break the from-space invariant.
func GetSlot(h *heap.Heap, p heap.Value) heap.Value {
	if h.IsForwarded(p) {
		return heap.Nil
	}
	return heap.Nil
}

// loadWord likewise (load prefix, case-insensitive).
func loadWord(h *heap.Heap, p heap.Value) heap.Value {
	return h.ForwardAddr(p)
}

// scan is collector machinery: forwarding access is its job.
func scan(h *heap.Heap, p heap.Value) heap.Value {
	if h.IsForwarded(p) {
		return h.ForwardAddr(p)
	}
	return p
}
