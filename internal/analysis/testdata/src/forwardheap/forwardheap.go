// Package fixforwardheap masquerades as a collector package: the forward
// row stops at the collector packages, whose job forwarding is, so nothing
// here is a finding.
package fixforwardheap

import "repligc/internal/heap"

// scan is collector machinery: forwarding access is its job.
func scan(h *heap.Heap, p heap.Value) heap.Value {
	if h.IsForwarded(p) {
		return h.ForwardAddr(p)
	}
	return p
}
