// Package fixbracket exercises the bracket row: only the collectors open and
// close a pause; a driver, a workload or a command never does it by hand.
package fixbracket

import (
	"repligc/internal/core"
	"repligc/internal/simtime"
)

// stall stops the mutator for a request of its own and charges the pause:
// three findings.
func stall(b *core.PauseBracket, m *core.Mutator) {
	b.Begin(m, simtime.EntryAlloc)
	b.Charge(m, simtime.AcctRootScan, simtime.Microsecond)
	b.End(m, simtime.PauseOther)
}

// A spelling a grep for ".Begin(" cannot see: a method value.
func opener(b *core.PauseBracket) func(*core.Mutator, simtime.Cause) { return b.Begin }
