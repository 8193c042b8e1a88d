// Package fixclean holds violations of several rules, each suppressed by a
// well-formed //gclint:allow annotation: the analyzer must report nothing.
package fixclean

import "repligc/internal/heap"

func tally(c map[heap.Kind]int) int {
	n := 0
	//gclint:allow maprange -- pure commutative sum; order cannot matter
	for _, v := range c {
		n += v
	}
	return n
}

func poke(h *heap.Heap, p heap.Value) heap.Value {
	//gclint:allow barrier -- fixture: pretend this is a debugging hook
	h.Store(p, 0, heap.Nil)
	h.Load(p, 0)     //gclint:allow barrier -- same-line annotation form
	h.IsForwarded(p) //gclint:allow forward -- fixture: a heap auditor is allowed to observe forwarding
	return heap.Nil
}
