// Package fixbarrier exercises the barrier rule: every direct touch of heap
// words outside the collector packages must be flagged with a pointer at the
// Mutator method to use instead.
package fixbarrier

import "repligc/internal/heap"

func writes(h *heap.Heap, p heap.Value) {
	h.Store(p, 0, heap.FromInt(1))
	h.StoreByte(p, 0, 7)
	h.SetBytes(p, []byte("x"))
	h.SetForward(p, p)
	h.SwapOld()
	if q, ok := h.AllocIn(h.OldFrom(), heap.KindRecord, 1); ok {
		_ = q
	}
	if q, ok := h.CopyObject(p, h.OldTo()); ok {
		_ = q
	}
}

// The chunked copy kernel's primitives are collector-only like CopyObject, and
// neither flips: p is read after both and only the barrier rule speaks.
func copies(h *heap.Heap, p heap.Value) {
	if q, ok := h.ReserveReplica(p, h.OldTo()); ok {
		h.CopyWords(q, p, 0, 1)
	}
	_ = p
}

func reads(h *heap.Heap, p heap.Value) heap.Value {
	_ = h.LoadByte(p, 0)
	_ = h.Bytes(p)
	_ = h.RawHeader(p)
	_ = int(h.Word(0))
	return h.Load(p, 0)
}

// Mutator-style calls through a non-Heap receiver must not be flagged.
type wrapper struct{ inner *heap.Heap }

func (w wrapper) Load(p heap.Value, i int) heap.Value { return heap.Nil }

func fine(w wrapper, p heap.Value) heap.Value { return w.Load(p, 0) }

// SetWord is the arena's raw write: collector-only like SetForward.
func poke(h *heap.Heap) { h.SetWord(1, heap.Nil) }
