// Package fixpauseonly exercises the pauseonly rule: fields annotated
// //gclint:pauseonly may only be written from functions whose every caller
// chain passes through a //gclint:pauseentry function (the mutator is
// stopped there, so unsynchronized writes are safe).
package fixpauseonly

// world is collector-style state with a pause-only cursor.
type world struct {
	//gclint:pauseonly fixture: the cursor only advances while the mutator is stopped
	cursor int

	//gclint:pauseonly
	bad int // missing invariant text: the annotation itself is flagged

	//gclint:pauseonly fixture: the run list grows only while the mutator is stopped
	runs []int

	free int // ordinary field, writable anywhere
}

//gclint:pauseentry fixture: the mutator is parked before step runs
func (w *world) pause() {
	w.step()
}

// step is only reachable through pause, so its cursor write is fine, and so
// is growing the run list.
func (w *world) step() {
	w.cursor++
	w.runs = append(w.runs, w.cursor)
	w.free = 0
}

// Poke is an un-annotated entry point: the write it reaches through step2
// is not pause-dominated and is flagged there.
func (w *world) Poke() {
	w.step2()
}

func (w *world) step2() {
	w.cursor = 0
}

// Reset writes the field outside a pause on purpose, with the reason in an
// allow annotation.
func (w *world) Reset() {
	w.cursor = 0 //gclint:allow pauseonly -- fixture: constructor-style reset before the world is shared
}

// Note grows the pause-only run list from an un-annotated entry point: an
// append is a write like any other, and is flagged.
func (w *world) Note(start int) {
	w.runs = append(w.runs, start)
}
