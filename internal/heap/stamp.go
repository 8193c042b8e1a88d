package heap

// The dirty map: the coalescing side table for the mutation log.
//
// The replication invariant tolerates stale replicas only as recorded in the
// mutation log, and log entries carry no values — the collector re-reads the
// slot from the original at apply time. Two entries for the same slot in the
// same collection cycle are therefore redundant: applying either one copies
// the slot's *current* contents. The side table below lets the write barrier
// detect that redundancy with one load and one mask test.
//
// Each arena word has one bit, 64 to a map word. The invariant: a bit is set
// if and only if an entry covering its word was appended since the last
// BeginLogEpoch. Collectors call BeginLogEpoch on entry to every pause and
// log cursors move only during pauses, so a set bit never vouches for an
// entry a cursor has already consumed, and the barrier may skip the append.
//
// The undo list names every map word that went non-zero since the last
// BeginLogEpoch; zeroing exactly those restores the all-clean map at a cost
// proportional to the marks made (which the pause is about to spend on the
// log anyway), not to the address space. A map word is listed only when it
// goes non-zero, so at most once an epoch: the list has a fixed capacity of
// one slot per map word, made with the map, and marking never allocates (so
// the barrier's fast path, which marks on a miss, can be nosplit). The bits
// are an optimisation, never a correctness input: a spuriously clean word
// costs one duplicate entry.

// BeginLogEpoch starts a new coalescing epoch, clearing every dirty bit set
// since the previous call. Collectors call it on entry to each pause, before
// any log cursor moves. The mutators of a group share the one map and the one
// log, so the one clear invalidates every mutator's marks together. logEpoch
// only numbers the pauses for EpochHook, skipping 0 when it wraps.
func (h *Heap) BeginLogEpoch() {
	for _, w := range h.undo {
		h.dirty[w] = 0
	}
	h.undo = h.undo[:0]
	if h.logEpoch++; h.logEpoch == 0 {
		h.logEpoch = 1
	}
	if h.EpochHook != nil {
		h.EpochHook(h.logEpoch)
	}
}

// SlotDirty reports whether payload word i of object p was marked dirty
// since the last BeginLogEpoch, i.e. whether the mutation log still retains
// an unconsumed entry covering the word. This is the write barrier's
// fast-path load and mask test.
func (h *Heap) SlotDirty(p Value, i int) bool {
	idx := p.index() + uint64(i)
	return h.dirty[idx>>6]&(1<<(idx&63)) != 0
}

// MarkSlotDirty sets the dirty bit of payload word i of object p. The caller
// must have appended (or be about to append, within the same mutator
// operation) a log entry covering the word.
func (h *Heap) MarkSlotDirty(p Value, i int) {
	idx := p.index() + uint64(i)
	h.markDirty(idx>>6, 1<<(idx&63))
}

// markDirty ors mask into map word w, recording w for the next BeginLogEpoch
// if this is its first mark of the epoch.
func (h *Heap) markDirty(w, mask uint64) {
	if h.dirty[w] == 0 {
		n := len(h.undo)
		h.undo = h.undo[:n+1]
		h.undo[n] = uint32(w)
	}
	h.dirty[w] |= mask
}

// dirtyMask returns the bits of arena words [lo, hi) that fall in lo's map
// word; hi must exceed lo.
func dirtyMask(lo, hi uint64) uint64 {
	mask := ^uint64(0) << (lo & 63)
	if end := (lo | 63) + 1; hi < end {
		mask &= ^uint64(0) >> (end - hi)
	}
	return mask
}

// WordsDirty reports whether payload words [i, i+n) of object p are all
// marked dirty since the last BeginLogEpoch. Byte-range stores coalesce at
// word granularity, so their fast path needs the conjunction over the
// covered words.
func (h *Heap) WordsDirty(p Value, i, n int) bool {
	lo := p.index() + uint64(i)
	for hi := lo + uint64(n); lo < hi; lo = (lo | 63) + 1 {
		if mask := dirtyMask(lo, hi); h.dirty[lo>>6]&mask != mask {
			return false
		}
	}
	return true
}

// MarkWordsDirty sets the dirty bits of payload words [i, i+n) of object p.
func (h *Heap) MarkWordsDirty(p Value, i, n int) {
	lo := p.index() + uint64(i)
	for hi := lo + uint64(n); lo < hi; lo = (lo | 63) + 1 {
		h.markDirty(lo>>6, dirtyMask(lo, hi))
	}
}
