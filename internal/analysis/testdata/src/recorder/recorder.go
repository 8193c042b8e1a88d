// Package fixrecorder exercises the recorder row: only a command attaches a
// flight recorder; a library layer takes rig.Config.Trace from its caller.
package fixrecorder

import (
	"repligc/internal/trace"
	tr "repligc/internal/trace"
)

// attach builds a recorder on its own: a finding.
func attach() *trace.Recorder { return trace.NewRecorder(1 << 10) }

// harness owns the trace file it writes, as a command does.
//
//gclint:allow recorder -- fixture: the harness writes the Chrome trace file it was asked for
func harness() *trace.Recorder { return trace.NewRecorder(1 << 10) }

// Spellings a grep for "trace.NewRecorder(" cannot see: a renamed import,
// and a method value.
func renamed() *tr.Recorder { return tr.NewRecorder(1 << 10) }

var newRecorder = trace.NewRecorder
