// Package fixannot exercises the annotation machinery itself: allows that
// suppress nothing, unknown rule names, missing reasons, duplicate rule names
// and misspelt annotation words are all findings (rule "annotation") — a
// stale annotation would silently mask the next real violation on its line.
package fixannot

import "repligc/internal/heap"

// used: a well-formed allow on the line above its violation suppresses it.
func used(h *heap.Heap, p heap.Value) {
	//gclint:allow barrier -- fixture: legal debugging poke
	h.Store(p, 0, heap.Nil)
}

// wrongLine: the allow sits two lines above the violation, so it suppresses
// nothing — the store is still flagged and the allow is reported as unused.
func wrongLine(h *heap.Heap, p heap.Value) {
	//gclint:allow barrier -- fixture: stranded annotation

	h.Store(p, 0, heap.Nil)
}

// unknownRule: the rule name has a typo, so the annotation is rejected and
// the read is still flagged.
func unknownRule(h *heap.Heap, p heap.Value) heap.Value {
	//gclint:allow barier -- fixture: typo in the rule name
	return h.Load(p, 0)
}

// missingReason: the " -- reason" part is mandatory.
func missingReason(h *heap.Heap, p heap.Value) heap.Value {
	//gclint:allow barrier
	return h.Load(p, 0)
}

// duplicate: the same rule listed twice on one annotation.
func duplicate(h *heap.Heap, p heap.Value) heap.Value {
	//gclint:allow barrier,barrier -- fixture: rule listed twice
	return h.Load(p, 0)
}

// noFlip vouches for a value no flip threatens: the stalehandle allow
// suppresses nothing and is reported like any other.
func noFlip(p heap.Value) heap.Value {
	//gclint:allow stalehandle -- fixture: p is read after an allocation
	return p
}

// wholeFunction's allow sits in its doc comment, so it covers every line of
// the function, however far below.
//
//gclint:allow barrier -- fixture: a heap dump reads raw words
func wholeFunction(h *heap.Heap, p heap.Value) heap.Value {
	_ = h.Load(p, 0)
	return h.Load(p, 1)
}

// idle's doc-comment allow covers a function that touches no heap word: it
// suppresses nothing and is reported.
//
//gclint:allow barrier -- fixture: held over from an earlier revision
func idle() {}

// misspelt's annotation word is misspelt, as are the two below: each would
// take its site out of the rule it was written for, with nothing said. The
// dispatch switch has a default, so only its marker would hold it to every
// Kind.
type misspelt struct {
	//gclint:dispatc fixture: a misspelt marker on a field
	cursor int
}

func misspeltAllow(h *heap.Heap, p heap.Value) heap.Value {
	//gclint:alow barrier -- fixture: the read stays flagged
	return h.Load(p, 0)
}

func misspeltDispatch(k heap.Kind) bool {
	//gclint:dispach
	switch k {
	case heap.KindRef:
		return true
	default:
		return false
	}
}
