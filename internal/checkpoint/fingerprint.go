package checkpoint

import (
	"repligc/internal/artifact"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// The canonical tuple a checkpoint preserves is a Restored: the heap image,
// the space geometry, the roots, the retained log and the scheduling
// cursors. The writer fills one over the live heap at commit time
// (captureState) and fingerprints it; recovery rebuilds one from the
// artifacts and fingerprints it again. Equality of the two fingerprints is
// the "bit-identical to the uncrashed run" guarantee: both sides hash the
// same fields of the same type in the same order, so any divergence — a
// missed patch, a stale segment, a mis-restored cursor — changes the hash.

// captureState views a live, quiescent run as the tuple recovery would
// rebuild from its checkpoint. It aliases the live heap, so it is good only
// inside the pause that took it.
func captureState(m *core.Mutator, p core.CheckpointPoint) *Restored {
	h := m.H
	from, to := h.OldFrom(), h.OldTo()
	r := &Restored{
		Cfg:                heapConfigOf(h),
		Heap:               h,
		nurseryHi:          h.Nursery.Hi,
		nurseryNext:        h.Nursery.Next,
		fromHi:             from.Hi,
		fromNext:           from.Next,
		toHi:               to.Hi,
		toNext:             to.Next,
		LogBase:            p.MinorLogCursor,
		BytesAllocated:     m.BytesAllocated,
		LogWrites:          m.LogWrites,
		MinorLogCursor:     p.MinorLogCursor,
		PromotedSinceMajor: p.PromotedSinceMajor,
		PromoHighWater:     p.PromoHighWater,
	}
	m.Roots.Visit(func(slot *heap.Value) { r.Roots = append(r.Roots, *slot) })
	for seq := p.MinorLogCursor; seq < m.Log.Len(); seq++ {
		r.LogEntries = append(r.LogEntries, m.Log.At(seq))
	}
	return r
}

// heapConfigOf reconstructs the heap.Config a heap was built with, from its
// space geometry (Lo/Cap are construction-time constants).
func heapConfigOf(h *heap.Heap) heap.Config {
	nCap := int64(h.Nursery.Cap-h.Nursery.Lo) * heap.BytesPerWord
	from, to := h.OldFrom(), h.OldTo()
	oldSemi := int64(from.Cap-from.Lo) * heap.BytesPerWord
	if alt := int64(to.Cap-to.Lo) * heap.BytesPerWord; alt > oldSemi {
		oldSemi = alt
	}
	return heap.Config{
		// NurseryBytes is the *initial* soft limit; it only matters as a
		// floor for heap.New, which the restore overrides with the
		// recorded Hi anyway. Use the capacity so New never rejects it.
		NurseryBytes:    nCap,
		NurseryCapBytes: nCap,
		OldSemiBytes:    oldSemi,
	}
}

// stateFingerprint hashes the canonical tuple: FNV-1a 64 over its fields as
// a stream of little-endian 64-bit integers.
func (r *Restored) stateFingerprint() uint64 {
	h := r.Heap
	fp := artifact.NewHash64()
	words := func(ws []heap.Value) {
		fp.U64(uint64(len(ws)))
		for _, w := range ws {
			fp.U64(uint64(w))
		}
	}
	arena := func(lo, hi uint64) {
		fp.U64(hi - lo)
		for i := lo; i < hi; i++ {
			fp.U64(uint64(h.Word(i)))
		}
	}
	fp.U64(uint64(r.Cfg.NurseryBytes))
	fp.U64(uint64(r.Cfg.NurseryCapBytes))
	fp.U64(uint64(r.Cfg.OldSemiBytes))
	fp.Bool(h.OldFrom().Name == "oldB") // a major has flipped an odd number of times
	for _, v := range []uint64{r.nurseryHi, r.nurseryNext, r.fromHi, r.fromNext, r.toHi, r.toNext} {
		fp.U64(v)
	}
	arena(h.OldFrom().Lo, r.fromNext)
	arena(h.Nursery.Lo, r.nurseryNext)
	words(r.Roots)
	fp.U64(uint64(r.LogBase))
	fp.U64(uint64(len(r.LogEntries)))
	for _, e := range r.LogEntries {
		fp.U64(uint64(e.Obj))
		fp.U64(uint64(uint32(e.Slot)))
		fp.U64(uint64(uint32(e.Len)))
		fp.Bool(e.Byte)
	}
	for _, v := range []int64{r.BytesAllocated, r.LogWrites, r.MinorLogCursor, r.PromotedSinceMajor, r.PromoHighWater} {
		fp.U64(uint64(v))
	}
	return uint64(fp)
}
