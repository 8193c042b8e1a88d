package gctest

import (
	"errors"
	"fmt"

	"repligc/internal/core"
	"repligc/internal/heap"
)

// FlipAudit checks that a flip redirects every root. It is a
// core.Checkpointer, called at the tail of every pause of the collector it is
// attached to, and compares the collector's flip counters with the pause
// before: after a minor flip no root may hold a pointer into the nursery the
// flip emptied, and after a major flip none may hold one into the semispace it
// discarded. A major started in the pause its predecessor flipped in
// promotes into that semispace, so that flip is not checked. Every pause is
// handed on to Next, when set, and Next's answer returned.
type FlipAudit struct {
	Next   core.Checkpointer
	Flips  int   // the flips whose redirect was checked
	Err    error // the first root found left behind
	minors int
	majors int
}

// PauseCheckpoint implements core.Checkpointer.
func (a *FlipAudit) PauseCheckpoint(m *core.Mutator, p core.CheckpointPoint) bool {
	st := m.GC.Stats()
	var spaces [2]*heap.Space
	if st.MinorCollections > a.minors {
		spaces[0] = &m.H.Nursery
	}
	if p.MajorCollections > a.majors && !p.MajorActive {
		spaces[1] = m.H.OldTo()
	}
	a.minors, a.majors = st.MinorCollections, p.MajorCollections
	for _, sp := range spaces {
		if sp == nil {
			continue
		}
		a.Flips++
		for i, slot := range m.Roots.Slots() {
			if v := *slot; sp.Contains(v) && a.Err == nil {
				a.Err = fmt.Errorf("root %d holds %v, in the space a flip of pause %d left behind", i, v, st.PauseCount)
			}
		}
	}
	if a.Next == nil {
		return false
	}
	return a.Next.PauseCheckpoint(m, p)
}

// Check reports the first root a flip left behind, or that no flip was
// checked. A nil audit, attached to no collector, reports nothing.
func (a *FlipAudit) Check() error {
	switch {
	case a == nil:
		return nil
	case a.Err != nil:
		return a.Err
	case a.Flips == 0:
		return errors.New("no flip's redirect was checked")
	}
	return nil
}
