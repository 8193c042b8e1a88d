// Package fixrunstats exercises the runstats row: the harness, the serving
// engine, the commands and the facade read a finished run through
// rig.Runtime.Stats, never past it through the collector's own counters.
package fixrunstats

import "repligc/internal/rig"

// minors reads the collector's counters: a finding.
func minors(rt *rig.Runtime) int { return rt.GC.Stats().MinorCollections }

// report reads the run through its report: fine.
func report(rt *rig.Runtime) rig.Stats { return rt.Stats() }

// raw compares the report against the collector's own record.
//
//gclint:allow runstats -- fixture: a differential of the report against its source
func raw(rt *rig.Runtime) bool { return rt.GC.Pauses() != nil }

// Spellings a grep for ".GC.Stats()" cannot see: the collector held in a
// variable, and a method value.
func held(rt *rig.Runtime) int {
	gc := rt.GC
	pauses := rt.GC.Pauses
	_ = pauses
	return gc.Stats().MajorCollections
}
