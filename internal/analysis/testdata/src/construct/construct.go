// Package fixconstruct exercises the construct rows: outside internal/rig no
// package assembles a runtime, however it spells the constructor.
package fixconstruct

import (
	"repligc/internal/core"
	"repligc/internal/heap"
	sc "repligc/internal/stopcopy"
)

// assemble builds a heap of its own: a finding.
func assemble(cfg heap.Config) *heap.Heap {
	return heap.New(cfg)
}

// restore sizes a heap from a snapshot header, as checkpoint recovery does;
// the allow in its doc comment covers the whole function.
//
//gclint:allow construct -- fixture: recovery sizes the heap from a header before any runtime exists
func restore(cfg heap.Config) *heap.Heap {
	return heap.New(cfg)
}

// Spellings a grep for "stopcopy.New(" or "core.NewGroup(" cannot see: a
// renamed import, and method values.
func collector(h *heap.Heap) *sc.Collector { return sc.New(h, sc.Config{}) }

var (
	newMutator     = core.NewMutator
	newGroup       = core.NewGroup
	newReplicating = core.NewReplicating
)
