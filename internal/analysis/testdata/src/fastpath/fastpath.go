// Package fixfastpath exercises the barrierfast rule: consulting the heap's
// dirty-stamp API commits a function to the fast-path invariant, so its doc
// comment must allow barrierfast with the invariant as the reason.
package fixfastpath

import "repligc/internal/heap"

// skipUnannotated consults the stamp with no annotation at all: flagged.
func skipUnannotated(h *heap.Heap, p heap.Value, i int) bool {
	return h.SlotDirty(p, i)
}

// markUnannotated mutates the stamp table without the annotation: flagged.
func markUnannotated(h *heap.Heap, p heap.Value, i int) {
	h.MarkSlotDirty(p, i)
}

// skipBare carries the allow but no invariant text, which is a claim with
// no content: the allow is malformed and the call is still flagged.
//gclint:allow barrierfast
func skipBare(h *heap.Heap, p heap.Value, i int) bool {
	return h.SlotDirty(p, i)
}

// skipReviewed is the reviewed form: the annotation states why skipping the
// append is safe.
//gclint:allow barrierfast -- a current-epoch stamp proves the log retains an unconsumed entry for this slot
func skipReviewed(h *heap.Heap, p heap.Value, i int) bool {
	if h.SlotDirty(p, i) {
		return true
	}
	h.MarkSlotDirty(p, i)
	return false
}

// skipWords covers the word-range variants under one annotation.
//gclint:allow barrierfast -- current-epoch stamps prove the log retains word-aligned entries covering these words
func skipWords(h *heap.Heap, p heap.Value, w, n int) bool {
	if h.WordsDirty(p, w, n) {
		return true
	}
	h.MarkWordsDirty(p, w, n)
	return false
}

// fastpathLiteral holds a function literal consulting the stamps: the
// literal is attributed to its annotated host.
//gclint:allow barrierfast -- the literal runs under its host's invariant; stamps only suppress entries the log still retains
func fastpathLiteral(h *heap.Heap, p heap.Value) func(int) bool {
	return func(i int) bool { return h.SlotDirty(p, i) }
}

// epoch is unrelated stamp-free heap use: never flagged.
func epoch(h *heap.Heap) {
	h.BeginLogEpoch()
}
