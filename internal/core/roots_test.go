package core

import (
	"testing"

	"repligc/internal/heap"
)

// sliceSource is a minimal RootSource over its own slots.
type sliceSource struct {
	slots []heap.Value
}

func (s *sliceSource) VisitRoots(v RootVisitor) {
	for i := range s.slots {
		v(&s.slots[i])
	}
}

// collectVisit gathers the slot pointers Visit enumerates, in order.
func collectVisit(r *RootSet) []*heap.Value {
	var out []*heap.Value
	r.Visit(func(slot *heap.Value) { out = append(out, slot) })
	return out
}

// sameSlots requires two enumerations to yield identical slot-pointer
// sequences (same pointers, same order).
func sameSlots(t *testing.T, label string, visit, slots []*heap.Value) {
	t.Helper()
	if len(visit) != len(slots) {
		t.Fatalf("%s: Visit enumerated %d slots, Slots %d", label, len(visit), len(slots))
	}
	for i := range visit {
		if visit[i] != slots[i] {
			t.Fatalf("%s: slot %d differs: Visit %p, Slots %p", label, i, visit[i], slots[i])
		}
	}
}

// TestRootSetSlotsVisitAgree is the differential check between RootSet's
// two enumeration paths: Slots (the collector's allocation-free pause-time
// form, which caches a visitor method value on first use) and Visit (the
// general form). They must yield identical slot sequences at every stage of
// a registration lifecycle — in particular after sources are registered
// *after* Slots has already warmed its cache, which is exactly what happens
// when a new mutator context (or a driver's root table) joins mid-cycle.
func TestRootSetSlotsVisitAgree(t *testing.T) {
	r := &RootSet{}

	// Empty set.
	sameSlots(t, "empty", collectVisit(r), r.Slots())

	a := &sliceSource{slots: []heap.Value{heap.FromInt(1), heap.FromInt(2)}}
	r.Register(a)
	sameSlots(t, "one source", collectVisit(r), r.Slots())

	// Warm Slots' cached visitor, then register more sources — the cache
	// must not freeze the source list.
	_ = r.Slots()
	b := &sliceSource{slots: []heap.Value{heap.FromInt(3)}}
	r.Register(b)
	sameSlots(t, "registered after warm-up", collectVisit(r), r.Slots())

	// A source that grows between enumerations (the driver root table and
	// handle stacks do this constantly).
	b.slots = append(b.slots, heap.FromInt(4), heap.FromInt(5))
	sameSlots(t, "grown source", collectVisit(r), r.Slots())

	// Register mid-cycle relative to an in-progress enumeration consumer:
	// take Slots' buffer, register, and check both paths agree afterwards
	// (the earlier buffer is dead per Slots' contract).
	_ = r.Slots()
	c := &sliceSource{slots: []heap.Value{heap.FromInt(6)}}
	r.Register(c)
	sameSlots(t, "mid-cycle registration", collectVisit(r), r.Slots())

	// Count agreement: Visit's return value is the charged root count and
	// must equal len(Slots()).
	n := r.Visit(func(*heap.Value) {})
	if got := len(r.Slots()); n != got {
		t.Fatalf("Visit counted %d, Slots enumerated %d", n, got)
	}

	// Remove a middle source mid-cycle, after Slots has warmed its buffer
	// over it: both paths must drop exactly its slots and keep the others
	// in registration order.
	_ = r.Slots()
	r.Unregister(b)
	sameSlots(t, "mid-cycle removal", collectVisit(r), r.Slots())
	want := []*heap.Value{&a.slots[0], &a.slots[1], &c.slots[0]}
	sameSlots(t, "survivors keep their order", want, r.Slots())

	// Removing a source that is not registered changes nothing; removing
	// one registered twice drops the later registration only.
	r.Unregister(b)
	sameSlots(t, "absent source", want, r.Slots())
	r.Register(a)
	r.Unregister(a)
	sameSlots(t, "duplicate registration", want, r.Slots())
	r.Unregister(c)
	r.Unregister(a)
	if got := len(r.Slots()); got != 0 || r.Visit(func(*heap.Value) {}) != 0 {
		t.Fatalf("emptied set still enumerates %d slots", got)
	}
}

// TestRootSetSlotsStableAcrossRepeats pins that repeated Slots calls reuse
// the buffer without changing the enumeration.
func TestRootSetSlotsStableAcrossRepeats(t *testing.T) {
	r := &RootSet{}
	s := &sliceSource{slots: []heap.Value{heap.FromInt(7), heap.FromInt(8), heap.FromInt(9)}}
	r.Register(s)
	first := append([]*heap.Value(nil), r.Slots()...)
	second := r.Slots()
	sameSlots(t, "repeat", first, second)
}
