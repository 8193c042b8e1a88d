package bench

import (
	"fmt"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/trace"
)

// ConfigName selects one of the paper's five collector configurations
// (§4.4), plus the ablation variants.
type ConfigName string

// The configurations of figures 8–10, plus ablations.
const (
	CfgRT        ConfigName = "rt"         // full real-time collector
	CfgMinorInc  ConfigName = "minor-inc"  // only minor collections incremental
	CfgMajorInc  ConfigName = "major-inc"  // only major collections incremental
	CfgSCMods    ConfigName = "sc-mods"    // stop-and-copy + compiler modifications (full logging)
	CfgSC        ConfigName = "sc"         // plain stop-and-copy baseline
	CfgRTLazy    ConfigName = "rt-lazy"    // rt + lazy log processing (§2.5 ablation)
	CfgRTBounded ConfigName = "rt-bounded" // rt + incremental log processing (§3.4 extension)
	CfgRTConc    ConfigName = "rt-conc"    // rt + interleaved (concurrent-style) pacing (§6)
	CfgRTDefer   ConfigName = "rt-defer"   // rt + deferred mutable copying (§2.5 copy order)
)

// AllPaperConfigs is the matrix of figures 8–10.
var AllPaperConfigs = []ConfigName{CfgRT, CfgMinorInc, CfgMajorInc, CfgSCMods, CfgSC}

// Params is one cell of the paper's parameter matrix.
type Params struct {
	OBytes int64 // major threshold O
	NBytes int64 // nursery size N
	LBytes int64 // copy limit L (per pause)
	ABytes int64 // nursery expansion A (0 = L/2)
}

// String renders as the paper does, in megabytes.
func (p Params) String() string {
	return fmt.Sprintf("O=%.1fMB N=%.1fMB", float64(p.OBytes)/(1<<20), float64(p.NBytes)/(1<<20))
}

// PaperParams is the paper's O×N matrix with its L choices: L = 0.1 MB when
// N = 0.2 MB (the 50 ms target) and L = 0.5 MB when N = 1 MB (§4.2).
func PaperParams() []Params {
	mk := func(oMB, nMB float64) Params {
		p := Params{OBytes: int64(oMB * (1 << 20)), NBytes: int64(nMB * (1 << 20))}
		if nMB < 0.5 {
			p.LBytes = 100 << 10
		} else {
			p.LBytes = 500 << 10
		}
		return p
	}
	return []Params{mk(1, 0.2), mk(1, 1.0), mk(5, 0.2), mk(5, 1.0)}
}

// RunConfig describes one benchmark run.
type RunConfig struct {
	Config ConfigName
	Params Params
	// Record collects a policy script (only meaningful for incremental
	// configurations, normally CfgRT).
	Record *policy.Script
	// Replay drives collections from a recorded script (honoured by the
	// stop-and-copy-minor configurations: sc, sc-mods, major-inc).
	Replay *policy.Script
	// Cost overrides the cost model; zero value means Default1993.
	Cost simtime.CostModel
	// OldSemiBytes overrides the old-generation semispace size; zero means
	// the paper's 96 MB. The exhaustion-matrix tests tighten this until
	// the collectors run out of memory.
	OldSemiBytes int64
	// NurseryCapBytes overrides the nursery growth bound; zero derives it
	// from N as before.
	NurseryCapBytes int64
	// NaiveBarrier disables write-barrier coalescing (the dirty-stamp and
	// nursery fast paths), restoring the append-every-store barrier. Used
	// as the baseline leg of the perf trajectory.
	NaiveBarrier bool
	// NaiveReplay disables the collector's host-speed hot-path
	// optimisations (per-object replay memo, block byte copies, batched
	// scan accounting). Simulated results are bit-identical either way;
	// the flag exists as the oracle of the differential tests
	// (TestBatchedReplayBitIdentical, the naive-replay cells of
	// engine_golden.txt).
	NaiveReplay bool
	// Trace, when non-nil, attaches an event recorder to the run: the
	// mutator's allocation epochs, the heap's log epochs and the
	// collector's pause/phase events all land in it. Tracing charges
	// nothing to the simulated clock, so a traced run's measurements are
	// bit-identical to an untraced one.
	Trace *trace.Recorder
	// Checkpoint, when non-nil, attaches the incremental checkpoint writer
	// to the run (replicating configurations only). Unlike tracing, the
	// snapshot copying is charged to the simulated clock
	// (simtime.AcctCheckpoint), so the checkpointed leg measures the
	// intrusion honestly. Run force-commits a final epoch at the end.
	Checkpoint *checkpoint.Writer
}

// Result is everything measured in one run.
type Result struct {
	Workload string
	Config   ConfigName
	Params   Params

	Elapsed   simtime.Duration
	Pauses    simtime.Recorder
	Stats     core.GCStats
	Breakdown [simtime.NumAccounts]simtime.Duration

	BytesAllocated    int64
	LogWrites         int64
	BarrierFastSkips  int64
	BarrierDirtySkips int64
	Output            string
}

// Runtime is one constructed heap + mutator + collector, ready to run a
// workload. Tests that need to observe a run's state after a failure (the
// exhaustion matrix) build one directly instead of going through Run.
type Runtime struct {
	Heap    *heap.Heap
	Mutator *core.Mutator
	GC      core.Collector
}

// NewRuntime constructs the runtime rc describes without running anything.
func NewRuntime(rc RunConfig) (*Runtime, error) {
	cost := rc.Cost
	if cost == (simtime.CostModel{}) {
		cost = simtime.Default1993()
	}

	// The nursery cap must accommodate replayed deltas (N plus expansion).
	nurseryCap := rc.NurseryCapBytes
	if nurseryCap == 0 {
		nurseryCap = 16 * rc.Params.NBytes
		if nurseryCap < 16<<20 {
			nurseryCap = 16 << 20
		}
	}
	oldSemi := rc.OldSemiBytes
	if oldSemi == 0 {
		oldSemi = 96 << 20
	}
	h := heap.New(heap.Config{
		NurseryBytes:    rc.Params.NBytes,
		NurseryCapBytes: nurseryCap,
		OldSemiBytes:    oldSemi,
	})

	logPolicy := core.LogAllMutations
	if rc.Config == CfgSC {
		logPolicy = core.LogPointersOnly
	}
	m := core.NewMutator(h, simtime.NewClock(), cost, logPolicy)
	m.NaiveBarrier = rc.NaiveBarrier

	gc, err := newCollector(rc, h)
	if err != nil {
		return nil, err
	}
	m.AttachGC(gc)
	if rc.Trace != nil {
		AttachTrace(&Runtime{Heap: h, Mutator: m, GC: gc}, rc.Trace)
	}
	if rc.Checkpoint != nil {
		rep, ok := gc.(*core.Replicating)
		if !ok {
			return nil, fmt.Errorf("bench: configuration %q cannot checkpoint (replicating collectors only)", rc.Config)
		}
		rep.SetCheckpointer(rc.Checkpoint)
	}
	return &Runtime{Heap: h, Mutator: m, GC: gc}, nil
}

// newCollector builds the collector rc describes over h.
func newCollector(rc RunConfig, h *heap.Heap) (core.Collector, error) {
	var gc core.Collector
	switch rc.Config {
	case CfgSC, CfgSCMods:
		gc = stopcopy.New(h, stopcopy.Config{
			NurseryBytes:        rc.Params.NBytes,
			MajorThresholdBytes: rc.Params.OBytes,
			Replay:              rc.Replay,
		})
	case CfgRT, CfgMinorInc, CfgMajorInc, CfgRTLazy, CfgRTBounded, CfgRTConc, CfgRTDefer:
		cfg := core.Config{
			NurseryBytes:         rc.Params.NBytes,
			MajorThresholdBytes:  rc.Params.OBytes,
			CopyLimitBytes:       rc.Params.LBytes,
			ExpandBytes:          rc.Params.ABytes,
			IncrementalMinor:     rc.Config != CfgMajorInc,
			IncrementalMajor:     rc.Config != CfgMinorInc,
			LazyLogProcessing:    rc.Config == CfgRTLazy,
			BoundedLogProcessing: rc.Config == CfgRTBounded,
			DeferMutableCopies:   rc.Config == CfgRTDefer,
			NaiveReplay:          rc.NaiveReplay,
			Record:               rc.Record,
		}
		if rc.Config == CfgRTConc {
			// 1.5 bytes of collector work per allocated byte: enough to
			// finish each collection well before the nursery fills.
			cfg.InterleavedTaxPermille = 1500
			cfg.BoundedLogProcessing = true
		}
		if rc.Config == CfgMajorInc {
			cfg.Replay = rc.Replay
		}
		gc = core.NewReplicating(h, cfg)
	default:
		return nil, fmt.Errorf("bench: unknown configuration %q", rc.Config)
	}
	return gc, nil
}

// GroupRuntime is a constructed heap + n-member mutator group + collector.
type GroupRuntime struct {
	Heap  *heap.Heap
	Group *core.Group
	GC    core.Collector
}

// NewGroupRuntime constructs the runtime rc describes with n mutator
// contexts sharing the heap and collector. A one-member group is
// bit-identical to the solo Runtime (the differential tests pin this);
// larger groups give each member a private nursery chunk and mutation log.
func NewGroupRuntime(rc RunConfig, n int) (*GroupRuntime, error) {
	cost := rc.Cost
	if cost == (simtime.CostModel{}) {
		cost = simtime.Default1993()
	}
	nurseryCap := rc.NurseryCapBytes
	if nurseryCap == 0 {
		nurseryCap = 16 * rc.Params.NBytes
		if nurseryCap < 16<<20 {
			nurseryCap = 16 << 20
		}
	}
	oldSemi := rc.OldSemiBytes
	if oldSemi == 0 {
		oldSemi = 96 << 20
	}
	h := heap.New(heap.Config{
		NurseryBytes:    rc.Params.NBytes,
		NurseryCapBytes: nurseryCap,
		OldSemiBytes:    oldSemi,
	})
	logPolicy := core.LogAllMutations
	if rc.Config == CfgSC {
		logPolicy = core.LogPointersOnly
	}
	g := core.NewGroup(h, simtime.NewClock(), cost, logPolicy, n)
	for _, m := range g.Members {
		m.NaiveBarrier = rc.NaiveBarrier
	}
	gc, err := newCollector(rc, h)
	if err != nil {
		return nil, err
	}
	g.AttachGC(gc)
	return &GroupRuntime{Heap: h, Group: g, GC: gc}, nil
}

// AttachTrace wires recorder r into every hook point of rt: the mutator's
// allocation epochs, the heap's log-epoch hook, and the collector's pause
// and phase events (any collector implementing SetTrace).
func AttachTrace(rt *Runtime, r *trace.Recorder) {
	rt.Mutator.Trace = r
	clock := rt.Mutator.Clock
	rt.Heap.EpochHook = func(epoch uint32) {
		r.LogEpoch(clock.Now(), int64(epoch))
	}
	if ts, ok := rt.GC.(interface{ SetTrace(*trace.Recorder) }); ok {
		ts.SetTrace(r)
	}
}

// Run executes workload w under rc and returns the measurements.
func Run(w Workload, rc RunConfig) (*Result, error) {
	rt, err := NewRuntime(rc)
	if err != nil {
		return nil, err
	}
	m, gc := rt.Mutator, rt.GC

	out, err := w.Run(m)
	if err != nil {
		return nil, err
	}
	if err := gc.FinishCycles(m); err != nil {
		return nil, err
	}
	if rc.Checkpoint != nil {
		if err := rc.Checkpoint.ForceCommit(m, gc.(*core.Replicating)); err != nil {
			return nil, fmt.Errorf("bench: final checkpoint commit: %w", err)
		}
	}

	res := &Result{
		Workload:       w.Name(),
		Config:         rc.Config,
		Params:         rc.Params,
		Elapsed:        m.Clock.Now(),
		Pauses:         *gc.Pauses(),
		Stats:          *gc.Stats(),
		Breakdown:      m.Clock.Breakdown(),
		BytesAllocated:    m.BytesAllocated,
		LogWrites:         m.LogWrites,
		BarrierFastSkips:  m.BarrierFastSkips,
		BarrierDirtySkips: m.BarrierDirtySkips,
		Output:            out,
	}
	return res, nil
}

// RecordedRT runs the real-time configuration while recording its policy
// script, returning both.
func RecordedRT(w Workload, p Params) (*Result, *policy.Script, error) {
	script := &policy.Script{}
	res, err := Run(w, RunConfig{Config: CfgRT, Params: p, Record: script})
	return res, script, err
}
