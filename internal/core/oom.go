package core

import (
	"errors"
	"fmt"

	"repligc/internal/heap"
)

// OOMResource identifies which memory resource was exhausted when an
// allocation or replication could not be satisfied.
type OOMResource int

const (
	// OOMNursery: a nursery allocation failed and a collection could not
	// make room (the nursery still has headroom below its cap, but the
	// survivors plus the request do not fit).
	OOMNursery OOMResource = iota
	// OOMOldSpace: a direct old-generation allocation (an oversized
	// object) failed even after an emergency collection.
	OOMOldSpace
	// OOMPromotion: the promotion space overflowed while a minor
	// collection was replicating nursery survivors.
	OOMPromotion
	// OOMToSpace: the reserve semispace overflowed while a major
	// collection was replicating old-space survivors.
	OOMToSpace
	// OOMExpansion: the nursery-expansion bound was blown — the nursery
	// grew to its hard cap and the pending allocation still does not fit.
	OOMExpansion
)

// String names the resource for diagnostics.
func (r OOMResource) String() string {
	switch r {
	case OOMNursery:
		return "nursery"
	case OOMOldSpace:
		return "old space"
	case OOMPromotion:
		return "promotion space"
	case OOMToSpace:
		return "major to-space"
	case OOMExpansion:
		return "nursery expansion bound"
	default:
		return fmt.Sprintf("OOMResource(%d)", int(r))
	}
}

// OOMError is the typed failure every resource-exhaustion path surfaces.
// The collectors never panic on exhaustion: they first run the degradation
// ladder (emergency non-incremental completion, headroom-driven early
// majors, nursery regrowth toward the cap — see DESIGN.md, "Failure model
// and fault injection"), and only when degradation cannot free space does
// this error propagate Alloc → Mutator → VM → cmd/rtgc. The heap remains
// structurally sound after the error: AuditHeap must pass on it.
type OOMError struct {
	Resource  OOMResource
	Collector string // collector configuration name ("" if none attached)
	Space     string // the exhausted heap space's name
	Request   int64  // bytes that could not be obtained
	Free      int64  // bytes free in the space at failure time
	Limit     int64  // the space's soft limit in bytes at failure time
	Degraded  bool   // the degradation ladder ran before this surfaced
}

// SpaceOOM builds the typed error for a request of hdr's size that space sp
// could not satisfy; gc names the collector ("" if none is attached).
func SpaceOOM(res OOMResource, gc string, sp *heap.Space, hdr heap.Header, degraded bool) *OOMError {
	return &OOMError{Resource: res, Collector: gc, Space: sp.Name, Request: hdr.SizeBytes(),
		Free: int64(sp.FreeWords()) * heap.BytesPerWord, Limit: sp.LimitBytes(), Degraded: degraded}
}

// Error renders the one-line diagnostic cmd/rtgc prints.
func (e *OOMError) Error() string {
	deg := ""
	if e.Degraded {
		deg = " after emergency completion"
	}
	gc := e.Collector
	if gc == "" {
		gc = "no collector"
	}
	return fmt.Sprintf("out of memory: %s exhausted%s (%s: need %d bytes, %d free of %d in %s)",
		e.Resource, deg, gc, e.Request, e.Free, e.Limit, e.Space)
}

// IsOOM reports whether err is (or wraps) a typed out-of-memory failure.
func IsOOM(err error) bool {
	var oe *OOMError
	return errors.As(err, &oe)
}

// AsOOM extracts the typed out-of-memory failure from err's chain.
func AsOOM(err error) (*OOMError, bool) {
	var oe *OOMError
	if errors.As(err, &oe) {
		return oe, true
	}
	return nil, false
}
