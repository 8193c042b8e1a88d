package core

import "repligc/internal/heap"

// RootVisitor is applied to every root slot; it may overwrite the slot
// (that is how flips redirect the mutator onto the replicas).
type RootVisitor func(slot *heap.Value)

// RootSource is anything holding heap pointers the collector must treat as
// roots: VM registers and operand stacks, global tables, and the handle
// stack used by Go code that manipulates heap values.
type RootSource interface {
	VisitRoots(v RootVisitor)
}

// RootSet aggregates all registered root sources.
type RootSet struct {
	sources []RootSource

	// buf and collect make Slots allocation-free: buf is reused across
	// enumerations and collect is the one method value handed to every
	// source (building a fresh closure per Visit call is what used to
	// allocate on every root scan and flip).
	buf     []*heap.Value
	collect RootVisitor
}

// Register adds a root source.
func (r *RootSet) Register(s RootSource) { r.sources = append(r.sources, s) }

// Unregister removes the most recent registration of s, keeping the order
// of the remaining sources (the order Visit and Slots enumerate in). A
// source whose owner is done must be removed, or every later root scan
// walks it forever. Sources are compared by identity, so s must be the
// pointer that was registered.
func (r *RootSet) Unregister(s RootSource) {
	for i := len(r.sources) - 1; i >= 0; i-- {
		if r.sources[i] == s {
			copy(r.sources[i:], r.sources[i+1:])
			r.sources[len(r.sources)-1] = nil
			r.sources = r.sources[:len(r.sources)-1]
			return
		}
	}
}

// Visit applies v to every root slot and returns the number of slots
// visited (the unit in which root-scan and flip costs are charged).
func (r *RootSet) Visit(v RootVisitor) int {
	n := 0
	counting := func(slot *heap.Value) {
		n++
		v(slot)
	}
	for _, s := range r.sources {
		s.VisitRoots(counting)
	}
	return n
}

func (r *RootSet) appendSlot(slot *heap.Value) { r.buf = append(r.buf, slot) }

// Slots enumerates every root slot into a reusable buffer and returns it,
// in the same source-registration order Visit uses. The returned slice is
// owned by the RootSet and valid until the next Slots call, which is safe
// for the collector's pause-time uses (root scans and flips never nest).
// After the buffer has warmed to the root population's size, enumeration
// performs zero Go allocations — unlike Visit, whose counting closure (and
// any capturing visitor passed to it) escapes on every call.
func (r *RootSet) Slots() []*heap.Value {
	r.buf = r.buf[:0]
	if r.collect == nil {
		r.collect = r.appendSlot
	}
	for _, s := range r.sources {
		s.VisitRoots(r.collect)
	}
	return r.buf
}

// Handle is a stable reference to a heap value for Go code. Go locals
// holding heap.Values directly go stale at a flip (the collector cannot see
// the Go stack), so any value held across a potential collection point must
// live in the mutator's handle stack instead — the classic shadow-stack
// discipline. A Handle indexes that stack.
type Handle int

// handleStack is the mutator's shadow stack; it is a RootSource.
type handleStack struct {
	slots []heap.Value
}

func (hs *handleStack) VisitRoots(v RootVisitor) {
	for i := range hs.slots {
		v(&hs.slots[i])
	}
}
