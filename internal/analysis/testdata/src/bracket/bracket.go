// Package fixbracket exercises the bracket row: only the collectors open and
// close a pause; a driver, a workload or a command never does it by hand.
package fixbracket

import "repligc/internal/core"

// stall stops the mutator for a request of its own: two findings.
func stall(b *core.PauseBracket, m *core.Mutator) {
	b.Begin(m)
	b.End(m, 0, false)
}

// A spelling a grep for ".Begin(" cannot see: a method value.
func opener(b *core.PauseBracket) func(*core.Mutator) { return b.Begin }
