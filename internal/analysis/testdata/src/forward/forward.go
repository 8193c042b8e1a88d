// Package fixforward exercises the forward rule outside the collector
// packages: mutator code must never observe forwarding state.
package fixforward

import "repligc/internal/heap"

func peek(h *heap.Heap, p heap.Value) heap.Value {
	if h.IsForwarded(p) {
		return h.ForwardAddr(p)
	}
	return h.ForwardAddr(p)
}
