// Package repligc is a from-scratch reproduction of "Real-Time Replication
// Garbage Collection" (Nettles & O'Toole, PLDI 1993): the first copying
// garbage collector that lets the mutator keep using the original objects
// while the collector incrementally builds replicas, kept consistent
// through a mutation log and handed over by an atomic flip.
//
// The package bundles everything the paper's system needed: a simulated
// two-generation heap with SML/NJ's object model (headers merged with
// forwarding pointers), the replication collector in all of the paper's
// configurations (real-time, minor-incremental, major-incremental), a
// classical stop-and-copy baseline, a MiniML compiler and VM whose data
// lives entirely on the simulated heap (the benchmark substrate), a
// deterministic simulated clock calibrated to the paper's hardware. The
// benchmark/experiment harness that regenerates every table and figure of
// the paper's evaluation is the cmd/rtgc-bench command.
//
// # Quick start
//
//	rt, err := repligc.New(repligc.Options{}) // "rt", the paper's 50 ms cell
//	out, err := rt.CompileAndRun(`print "hello from MiniML\n"`)
//	err = rt.Finish()
//	fmt.Println(out, rt.StatsSummary())
//
// Options.Collector picks any row of the collector table cmd/rtgc -gc
// takes, under the same name: repligc.Options{Collector: "sc"} is the
// stop-and-copy baseline, and every run's StatsSummary starts with its name.
//
// Lower-level access (allocation, write barrier, handles) is available via
// rt.Mutator; see the examples/ directory for allocation-level, interactive
// and benchmark-style programs.
package repligc

import (
	"fmt"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/policy"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/vm"
)

// The names a caller outside this module needs to allocate through
// Runtime.Mutator and to handle the facade's errors.
type (
	// Value is a tagged heap word (immediate integer or pointer).
	Value = heap.Value
	// Kind classifies heap objects.
	Kind = heap.Kind

	// Mutator is the allocation / write-barrier / getheader interface.
	Mutator = core.Mutator
	// Handle pins a heap value for Go code across collections.
	Handle = core.Handle
	// Collector is the mutator-facing collector contract.
	Collector = core.Collector

	// Clock is the deterministic simulated clock.
	Clock = simtime.Clock

	// Script records/replays collection policy decisions (paper §4.2).
	Script = policy.Script

	// OOMError is the typed heap-exhaustion failure every collector
	// surfaces when the degradation ladder (forced completion, emergency
	// major collection) cannot free enough space. Extract it from a
	// wrapped error chain with AsOOM.
	OOMError = core.OOMError
)

// IsOOM reports whether err's chain contains a heap-exhaustion failure.
func IsOOM(err error) bool { return core.IsOOM(err) }

// AsOOM extracts the typed *OOMError from err's chain.
func AsOOM(err error) (*OOMError, bool) { return core.AsOOM(err) }

// Object kinds.
const (
	KindRecord  = heap.KindRecord
	KindClosure = heap.KindClosure
	KindString  = heap.KindString
	KindRef     = heap.KindRef
	KindArray   = heap.KindArray
	KindBytes   = heap.KindBytes
)

// Prelude is MiniML's standard library source (lists, strings, arrays,
// futures); prepend it to programs that want it.
const Prelude = lang.Prelude

// Options configures New. Zero values take the paper's defaults.
type Options struct {
	// Collector is a name from the collector table cmd/rtgc -gc takes (an
	// unknown name's error lists it); empty means "rt", the real-time
	// collector.
	Collector string
	// N, O and L; zero takes the paper's 50 ms cell (N = 0.2 MB, O = 1 MB,
	// L = 100 KB).
	NurseryBytes        int64
	MajorThresholdBytes int64
	CopyLimitBytes      int64
	// Record, when non-nil, accumulates the run's policy script (§4.2);
	// Replay drives collections from one ("sc-mods" replaying an "rt"
	// recording is the paper's mechanism-cost measurement). A collector
	// that cannot honour either refuses it.
	Record, Replay *Script
}

// Runtime bundles one heap + mutator + collector, ready to allocate,
// compile and run MiniML.
type Runtime struct {
	Mutator *Mutator
	GC      Collector
	Clock   *Clock

	run *rig.Runtime // what ends the run and reads it
}

// New builds a runtime with the named collector, or reports why the
// collector cannot run as o asks.
func New(o Options) (*Runtime, error) {
	name := o.Collector
	if name == "" {
		name = rig.RT.Name
	}
	coll, err := rig.Named(name)
	if err != nil {
		return nil, err
	}
	rt, err := rig.New(rig.Config{
		Collector: coll,
		Params:    rig.Params{NBytes: o.NurseryBytes, OBytes: o.MajorThresholdBytes, LBytes: o.CopyLimitBytes},
		Record:    o.Record,
		Replay:    o.Replay,
	})
	if err != nil {
		return nil, err
	}
	return &Runtime{Mutator: rt.Mutator, GC: rt.GC, Clock: rt.Mutator.Clock, run: rt}, nil
}

// CompileAndRun compiles a MiniML program on this runtime's heap (the
// compiler's working data is itself collected — the paper's Comp workload)
// and executes it, returning its printed output. Collector pauses and
// statistics accumulate on r.GC.
func (r *Runtime) CompileAndRun(src string) (string, error) {
	prog, err := lang.Compile(r.Mutator, src)
	if err != nil {
		return "", err
	}
	machine := vm.New(r.Mutator, prog)
	machine.MaxSteps = 2_000_000_000
	err = machine.Run()
	return machine.Output.String(), err
}

// Finish drives any in-progress incremental collection to completion. A
// non-nil error is heap exhaustion (IsOOM reports true on it); the heap
// remains auditable.
func (r *Runtime) Finish() error { return r.run.Finish() }

// StatsSummary renders the run's report (see cmd/rtgc -stats for all of it)
// in one line: the collector, elapsed time, allocation, collections and the
// pause tail.
func (r *Runtime) StatsSummary() string {
	s := r.run.Stats()
	return fmt.Sprintf("%s: elapsed=%v alloc=%.1fMB minors=%d majors=%d pauses=%d p99=%v max=%v",
		s.Collector, s.Elapsed, float64(s.BytesAllocated)/(1<<20), s.GC.MinorCollections, s.GC.MajorCollections,
		len(s.Pauses.Pauses), s.Pauses.Percentile(99), s.Pauses.Max())
}
