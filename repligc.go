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
// deterministic simulated clock calibrated to the paper's hardware, and the
// benchmark/experiment harness that regenerates every table and figure of
// the paper's evaluation.
//
// # Quick start
//
//	rt, err := repligc.NewRealTime(repligc.RealTimeOptions{})
//	out, err := rt.CompileAndRun(`print "hello from MiniML\n"`)
//	err = rt.Finish()
//	fmt.Println(out, rt.StatsSummary())
//
// Lower-level access (allocation, write barrier, handles) is available via
// rt.Mutator; see the examples/ directory for allocation-level, interactive
// and benchmark-style programs.
package repligc

import (
	"fmt"

	"repligc/internal/bench"
	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/policy"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/vm"
)

// Re-exported core types. The facade exposes the internal packages' types
// as aliases so downstream code can use the full API surface through this
// single import.
type (
	// Heap is the simulated two-generation heap.
	Heap = heap.Heap
	// HeapConfig sizes a heap.
	HeapConfig = heap.Config
	// Value is a tagged heap word (immediate integer or pointer).
	Value = heap.Value
	// Kind classifies heap objects.
	Kind = heap.Kind
	// Header is an object descriptor.
	Header = heap.Header

	// Mutator is the allocation / write-barrier / getheader interface.
	Mutator = core.Mutator
	// Handle pins a heap value for Go code across collections.
	Handle = core.Handle
	// Collector is the mutator-facing collector contract.
	Collector = core.Collector
	// GCStats are the collector's work counters.
	GCStats = core.GCStats
	// ReplicatingConfig parameterises the replication collector
	// (N, O, L and the incremental switches; A is L/2).
	ReplicatingConfig = core.Config
	// Replicating is the paper's replication collector.
	Replicating = core.Replicating
	// LogPolicy selects which mutations the write barrier records.
	LogPolicy = core.LogPolicy

	// StopCopy is the stop-and-copy baseline collector.
	StopCopy = stopcopy.Collector
	// StopCopyConfig parameterises the baseline.
	StopCopyConfig = stopcopy.Config

	// Clock is the deterministic simulated clock.
	Clock = simtime.Clock
	// CostModel fixes the simulated cost of each unit of work.
	CostModel = simtime.CostModel
	// Duration is simulated time in nanoseconds.
	Duration = simtime.Duration

	// Script records/replays collection policy decisions (paper §4.2).
	Script = policy.Script

	// Program is compiled MiniML bytecode.
	Program = bytecode.Program
	// VM executes MiniML bytecode on the simulated heap.
	VM = vm.VM

	// BenchSuite runs the paper's evaluation experiments.
	BenchSuite = bench.Suite
	// BenchScale sizes the benchmark workloads.
	BenchScale = bench.Scale

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

// Logging policies.
const (
	LogPointersOnly = core.LogPointersOnly
	LogAllMutations = core.LogAllMutations
)

// Default1993 is the cost model calibrated to the paper's hardware.
func Default1993() CostModel { return simtime.Default1993() }

// Prelude is MiniML's standard library source (lists, strings, arrays,
// futures); prepend it to programs that want it.
const Prelude = lang.Prelude

// NewBenchSuite builds the experiment suite; see cmd/rtgc-bench.
func NewBenchSuite(s BenchScale) *BenchSuite { return bench.NewSuite(s) }

// DefaultBenchScale is the full-evaluation workload scale.
func DefaultBenchScale() BenchScale { return bench.DefaultScale() }

// RealTimeOptions configures NewRealTime. Zero values take the paper's
// defaults: N = 0.2 MB, O = 1 MB, L = 100 KB (the 50 ms pause target).
type RealTimeOptions struct {
	NurseryBytes        int64
	MajorThresholdBytes int64
	CopyLimitBytes      int64
	// Minor/MajorIncremental default to true (the real-time collector);
	// set DisableIncrementalMinor / DisableIncrementalMajor to obtain the
	// paper's partial configurations.
	DisableIncrementalMinor bool
	DisableIncrementalMajor bool
	// InterleavedTaxPermille enables the concurrent-style pacing of the
	// paper's §6: collector work rides on allocation as a copying tax
	// (bytes of work per 1000 bytes allocated) and pause-sized stops all
	// but disappear. 1500 is a reasonable value; zero disables.
	InterleavedTaxPermille int
	// Record, when non-nil, accumulates the run's policy script (§4.2);
	// Replay drives collections from one (see NewStopCopyReplay).
	Record *Script
	// HeapConfig overrides the heap sizing; any zero field keeps its
	// default (expansion up to max(16 N, 16 MB), 96 MB old semispaces). The
	// nursery itself is sized from NurseryBytes above: HeapConfig's own
	// NurseryBytes must be zero or equal to it.
	HeapConfig HeapConfig
}

// Runtime bundles one heap + mutator + collector, ready to allocate,
// compile and run MiniML.
type Runtime struct {
	Heap    *Heap
	Mutator *Mutator
	GC      Collector
	Clock   *Clock

	run *rig.Runtime // what ends the run and reads it
}

// newRuntime maps every facade constructor onto the one runtime constructor.
func newRuntime(c rig.Config) (*Runtime, error) {
	rt, err := rig.New(c)
	if err != nil {
		return nil, err
	}
	return &Runtime{Heap: rt.Heap, Mutator: rt.Mutator, GC: rt.GC, Clock: rt.Mutator.Clock, run: rt}, nil
}

// NewRealTime builds a runtime with the replication collector.
func NewRealTime(o RealTimeOptions) (*Runtime, error) {
	coll := rig.Collector{Log: core.LogAllMutations, Engine: core.Config{
		IncrementalMinor:       !o.DisableIncrementalMinor,
		IncrementalMajor:       !o.DisableIncrementalMajor,
		InterleavedTaxPermille: o.InterleavedTaxPermille,
	}}
	coll.Name = coll.Engine.Name()
	if n := o.HeapConfig.NurseryBytes; n != 0 && n != o.NurseryBytes {
		return nil, &rig.UnsupportedError{Collector: coll.Name, Field: "HeapConfig.NurseryBytes",
			Reason: "the nursery is sized from NurseryBytes; leave it zero or equal"}
	}
	return newRuntime(rig.Config{
		Collector:       coll,
		Params:          rig.Params{NBytes: o.NurseryBytes, OBytes: o.MajorThresholdBytes, LBytes: o.CopyLimitBytes},
		NurseryCapBytes: o.HeapConfig.NurseryCapBytes,
		OldSemiBytes:    o.HeapConfig.OldSemiBytes,
		Record:          o.Record,
	})
}

// NewStopCopyReplay builds a stop-and-copy runtime whose collections are
// driven by a policy script recorded from a real-time run — the paper's
// §4.2 methodology for measuring mechanism costs with identical policy.
func NewStopCopyReplay(nurseryBytes int64, script *Script) (*Runtime, error) {
	return newRuntime(rig.Config{Collector: rig.SCMods, Params: rig.Params{NBytes: nurseryBytes}, Replay: script})
}

// NewStopCopy builds a runtime with the stop-and-copy baseline.
func NewStopCopy(nurseryBytes, majorThresholdBytes int64) (*Runtime, error) {
	return newRuntime(rig.Config{Collector: rig.SC, Params: rig.Params{NBytes: nurseryBytes, OBytes: majorThresholdBytes}})
}

// Compile compiles MiniML source on this runtime's heap (the compiler's
// working data is itself collected — the paper's Comp workload).
func (r *Runtime) Compile(src string) (*Program, error) {
	return lang.Compile(r.Mutator, src)
}

// CompileAndRun compiles and executes a MiniML program, returning its
// printed output. Collector pauses and statistics accumulate on r.GC.
func (r *Runtime) CompileAndRun(src string) (string, error) {
	prog, err := r.Compile(src)
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
