// Package rig is the one place a run is assembled. A run is a heap, a group
// of mutators, a collector and whatever observes them (a flight recorder, a
// checkpoint writer); the paper's method (§4.2) is that two runs may differ
// in the collector's mechanism and in nothing else, so every decision about
// how those parts meet — which switches a collector name stands for, how the
// heap is sized, who gets the recorder, what ends a run, what is read of a
// finished one — is made here and nowhere else. The benchmark harness, the
// serving engine, the command-line tools, the crash matrix and the public
// facade all call New; the harness, the serving engine, the commands and the
// facade read a run through Runtime.Stats, and every JSON report carries its
// Row.
package rig

import (
	"fmt"
	"strings"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/trace"
)

// Collector is a resolved collector configuration: which engine runs, with
// which switches, under which logging policy. The named ones are the rows of
// Table; a caller that needs a configuration no name describes (the crash
// matrix's 200 ‰ tax, the facade's caller-chosen switches) fills one in.
type Collector struct {
	Name string
	// StopCopy selects the stop-and-copy baseline (internal/stopcopy)
	// instead of the replicating engine.
	StopCopy bool
	// Engine holds the replicating engine's switches. Sizes, scripts and
	// NaiveReplay are Config's: New overwrites them here.
	Engine core.Config
	// Log is what the write barrier records. Replication is incorrect
	// without every mutation; only the plain baseline may log pointers only.
	Log core.LogPolicy
}

// The named collectors: the paper's five configurations (§4.4), the
// replicating machinery with both generations non-incremental, and the
// ablations.
var (
	RT           = replicating("rt", core.Config{IncrementalMinor: true, IncrementalMajor: true})
	MinorInc     = replicating("minor-inc", core.Config{IncrementalMinor: true})
	MajorInc     = replicating("major-inc", core.Config{IncrementalMajor: true})
	StopCopyCore = replicating("stop-copy-core", core.Config{})
	// SC is the plain baseline; SCMods adds the compiler modifications
	// (every mutation logged), the cost figures 8–10 separate out.
	SC     = Collector{Name: "sc", StopCopy: true, Log: core.LogPointersOnly}
	SCMods = Collector{Name: "sc-mods", StopCopy: true, Log: core.LogAllMutations}
	// rt with lazy log processing (§2.5), with interleaved pacing (§6: 1.5
	// bytes of collector work per allocated byte finishes each collection
	// well before the nursery fills) and with deferred copying of mutable
	// objects (§2.5).
	RTLazy  = replicating("rt-lazy", core.Config{IncrementalMinor: true, IncrementalMajor: true, LazyLogProcessing: true})
	RTConc  = replicating("rt-conc", core.Config{IncrementalMinor: true, IncrementalMajor: true, InterleavedTaxPermille: 1500})
	RTDefer = replicating("rt-defer", core.Config{IncrementalMinor: true, IncrementalMajor: true, DeferMutableCopies: true})
)

// Table is every named collector, in the order help strings list them.
var Table = []Collector{RT, MinorInc, MajorInc, StopCopyCore, SC, SCMods, RTLazy, RTConc, RTDefer}

func replicating(name string, engine core.Config) Collector {
	return Collector{Name: name, Engine: engine, Log: core.LogAllMutations}
}

// Names lists Table's names, comma-separated, for usage strings and errors.
func Names() string {
	names := make([]string, len(Table))
	for i, c := range Table {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// Named resolves a collector name through Table.
func Named(name string) (Collector, error) {
	for _, c := range Table {
		if c.Name == name {
			return c, nil
		}
	}
	return Collector{}, &UnsupportedError{Collector: name, Reason: "no such name; the table has " + Names()}
}

// Params is one cell of the paper's parameter matrix.
type Params struct {
	OBytes int64 // major threshold O
	NBytes int64 // nursery size N
	LBytes int64 // copy limit L per pause (read by incremental configurations)
}

// String renders as the paper does, in megabytes.
func (p Params) String() string {
	return fmt.Sprintf("O=%.1fMB N=%.1fMB", float64(p.OBytes)/(1<<20), float64(p.NBytes)/(1<<20))
}

// Checkpointer is what New needs of a checkpoint writer: the collector's
// per-pause hook, the commit that ends a run and what it persisted, which
// Runtime.Stats reports. internal/checkpoint.Writer implements it; the
// interface lives here so that package can itself build its runs through New.
type Checkpointer interface {
	core.Checkpointer
	ForceCommit(m *core.Mutator, gc *core.Replicating) error
	Stats() CheckpointStats
}

// CheckpointStats aggregates a checkpoint writer's lifetime activity
// (internal/checkpoint calls it Stats). Its JSON form is the counters.
type CheckpointStats struct {
	Committed     int         `json:"committed"`
	Aborted       int         `json:"aborted"` // epochs invalidated by a major flip mid-snapshot
	SnapshotBytes int64       `json:"snapshot_bytes"`
	WALBytes      int64       `json:"wal_bytes"`
	WordsCopied   int64       `json:"words_copied"` // heap words written into snapshot segments
	PatchWords    int64       `json:"patch_words"`  // WAL patch pairs (slots mutated mid-snapshot)
	Epochs        []EpochInfo `json:"-"`
	LastErr       error       `json:"-"` // most recent I/O failure (epoch aborted, writing continues)
}

// EpochInfo describes one committed checkpoint epoch.
type EpochInfo struct {
	Epoch       uint64
	Fingerprint uint64 // authoritative state hash, computed from the live heap at commit
	SnapBytes   int64
	WALBytes    int64
	PatchWords  int // WAL patch pairs written (slots mutated mid-snapshot)
	LogEntries  int // retained mutation-log entries persisted
	Pauses      int // pauses the epoch's copying was spread across
}

// Config describes one run.
type Config struct {
	Collector Collector
	// Params is the cell the collector runs in; a zero field takes its
	// value from the paper's 50 ms cell (N = 200 KB, O = 1 MB, L = 100 KB).
	Params
	// OldSemiBytes sizes each old-generation semispace; zero means the
	// paper's 96 MB. NurseryCapBytes bounds nursery expansion; zero means
	// max(16 N, 16 MB), room for replayed deltas (N plus expansion).
	OldSemiBytes    int64
	NurseryCapBytes int64
	// Heap, when non-nil, is used instead of a fresh one (recovery rebuilds
	// a runtime over a restored heap); the two sizes above must be zero.
	Heap *heap.Heap
	// Members is the number of mutator contexts sharing the heap and the
	// collector; zero means one.
	Members int

	// Record accumulates the run's policy script (§4.2); Replay drives
	// collections from one, which only a collector whose minor collections
	// complete in one pause can follow.
	Record *policy.Script
	Replay *policy.Script

	// NaiveBarrier makes every member's write barrier append every store
	// (the baseline leg of the perf trajectory). NaiveReplay selects the
	// replicating engine's entry-at-a-time reference paths, the oracle of
	// the differential tests: simulated results are bit-identical either way.
	NaiveBarrier bool
	NaiveReplay  bool

	// Trace, when non-nil, receives every member's allocation epochs, the
	// heap's log epochs and the collector's pauses and phases: what a Chrome
	// trace file is exported from. No digest needs it — pauses and their
	// phases are in the collector's own record (GC.Pauses) — and it charges
	// nothing, so a traced run is bit-identical to an untraced one.
	Trace *trace.Recorder
	// Checkpoint, when non-nil, is attached to the collector and force-
	// committed by Finish. Its copying is charged to the simulated clock.
	Checkpoint Checkpointer
}

// UnsupportedError is the one failure of Named and New: a collector name the
// table does not have (Field is empty), or a configuration field the
// collector cannot honour. New never builds a runtime that ignores a field
// it was given.
type UnsupportedError struct {
	Collector string
	Field     string
	Reason    string
}

func (e *UnsupportedError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("rig: collector %q: %s", e.Collector, e.Reason)
	}
	return fmt.Sprintf("rig: collector %q does not support %s: %s", e.Collector, e.Field, e.Reason)
}

// Runtime is one constructed run. Mutator is Group.Members[0]: a run with
// one mutator is a one-member group — the only way core builds a mutator —
// so nothing forks on the member count.
type Runtime struct {
	Heap      *heap.Heap
	Mutator   *core.Mutator
	Group     *core.Group
	GC        core.Collector
	Recorder  *trace.Recorder // Config.Trace: nil unless the caller attached one
	Collector string          // the collector's name, for reports

	ckpt      Checkpointer
	copyLimit int64 // L, what Stats.CheckPauseBound holds the pauses to
}

// unsupported lists, in order of checking, every combination New refuses.
func (c *Config) unsupported() *UnsupportedError {
	no := func(field, reason string) *UnsupportedError {
		return &UnsupportedError{Collector: c.Collector.Name, Field: field, Reason: reason}
	}
	coll := c.Collector
	scripted := c.Record != nil || c.Replay != nil
	switch {
	case !coll.StopCopy && coll.Log != core.LogAllMutations:
		return no("Log", "replication is incorrect without a complete mutation log")
	case coll.StopCopy && c.Checkpoint != nil:
		return no("Checkpoint", "the checkpoint's write-ahead log is the replicating collector's mutation log, pinned at its pause boundaries; stop-and-copy has neither")
	case coll.StopCopy && c.Record != nil:
		return no("Record", "the stop-and-copy baseline replays scripts, it records none")
	case coll.StopCopy && c.NaiveReplay:
		return no("NaiveReplay", "the stop-and-copy baseline has one replay path")
	case !coll.StopCopy && coll.Engine.IncrementalMinor && c.Replay != nil:
		return no("Replay", "a minor collection spread over several pauses cannot be pinned to recorded allocation marks")
	case c.Members > 1 && c.Checkpoint != nil:
		return no("Checkpoint", "a snapshot carries one mutator's allocation and log counters, and recovery rebuilds one handle stack")
	case c.Members > 1 && scripted:
		return no("Record/Replay", "a script's marks are one mutator's allocation volume")
	case c.Heap != nil && (c.OldSemiBytes != 0 || c.NurseryCapBytes != 0):
		return no("OldSemiBytes/NurseryCapBytes", "a pre-built heap is already sized")
	}
	return nil
}

// New builds the runtime c describes, or reports why it cannot.
func New(c Config) (*Runtime, error) {
	if err := c.unsupported(); err != nil {
		return nil, err
	}
	if c.NBytes == 0 {
		c.NBytes = 200 << 10
	}
	if c.OBytes == 0 {
		c.OBytes = 1 << 20
	}
	if c.LBytes == 0 {
		c.LBytes = 100 << 10
	}
	h := c.Heap
	if h == nil {
		hc := heap.Config{NurseryBytes: c.NBytes, NurseryCapBytes: c.NurseryCapBytes, OldSemiBytes: c.OldSemiBytes}
		if hc.NurseryCapBytes == 0 {
			hc.NurseryCapBytes = max(16*c.NBytes, 16<<20)
		}
		if hc.OldSemiBytes == 0 {
			hc.OldSemiBytes = 96 << 20
		}
		h = heap.New(hc)
	}

	g := core.NewGroup(h, simtime.NewClock(), simtime.Default1993(), c.Collector.Log, max(c.Members, 1))
	rt := &Runtime{Heap: h, Mutator: g.Members[0], Group: g, Recorder: c.Trace, Collector: c.Collector.Name, ckpt: c.Checkpoint, copyLimit: c.LBytes}
	for _, m := range g.Members {
		m.NaiveBarrier = c.NaiveBarrier
		m.Trace = c.Trace
	}
	if tr, clock := c.Trace, g.Clock; tr != nil {
		h.EpochHook = func(epoch uint32) { tr.LogEpoch(clock.Now(), int64(epoch)) }
	}

	if c.Collector.StopCopy {
		gc := stopcopy.New(h, stopcopy.Config{NurseryBytes: c.NBytes, MajorThresholdBytes: c.OBytes, Replay: c.Replay})
		gc.SetTrace(c.Trace)
		rt.GC = gc
	} else {
		cc := c.Collector.Engine
		cc.NurseryBytes, cc.MajorThresholdBytes, cc.CopyLimitBytes = c.NBytes, c.OBytes, c.LBytes
		cc.NaiveReplay, cc.Record, cc.Replay = c.NaiveReplay, c.Record, c.Replay
		gc := core.NewReplicating(h, cc)
		gc.SetTrace(c.Trace)
		gc.SetCheckpointer(c.Checkpoint)
		rt.GC = gc
	}
	g.AttachGC(rt.GC)
	return rt, nil
}

// Finish ends the run: every in-progress collection is driven to completion
// and, when a checkpointer is attached, a final epoch is force-committed, so
// even a short run leaves a recoverable artifact. The error is heap
// exhaustion (core.IsOOM) or the commit's I/O failure.
func (rt *Runtime) Finish() error {
	if err := rt.Group.Run(0, rt.GC.FinishCycles); err != nil {
		return err
	}
	if rt.ckpt != nil {
		if err := rt.ckpt.ForceCommit(rt.Mutator, rt.GC.(*core.Replicating)); err != nil {
			return fmt.Errorf("final checkpoint commit: %w", err)
		}
	}
	return nil
}

// Stats is everything a report says about one finished run, read once: the
// paper's tables, the perf report, the serving engine, the commands and the
// facade all read it instead of the runtime's parts. Text is its one
// rendering and Row its one JSON form.
type Stats struct {
	Collector string           // the collector's name, as New was given it
	Elapsed   simtime.Duration // the clock when the run finished
	Pauses    *simtime.Digest  // the collector's pause record over [0, Elapsed]
	// MMUWindows are the windows of the run's one MMU curve: the standard
	// ladder, to which a serving run adds its cohorts' SLO targets.
	MMUWindows []simtime.Duration
	GC         core.GCStats
	Breakdown  [simtime.NumAccounts]simtime.Duration
	// The mutator counters, summed over the group's members.
	BytesAllocated, LogWrites, BarrierFastSkips, BarrierDirtySkips int64
	// Replicating is set for the replicating engine, the one that counts
	// copies split, completions deferred and the log it leaves behind.
	Replicating bool
	// Checkpoint is what the attached checkpoint writer persisted; nil
	// without one.
	Checkpoint *CheckpointStats
	// CopyLimit is the run's L, which the pause bound is a formula over.
	CopyLimit int64
}

// Stats reads the run; call it once the run has finished. It reads the
// mutator, the collector and the checkpointer, and the group only for its
// other members, so a Runtime assembled without a Group (the frozen
// benchmark serves one) is read as a one-member run.
func (rt *Runtime) Stats() Stats {
	_, replicating := rt.GC.(*core.Replicating)
	clock := rt.Mutator.Clock
	s := Stats{
		Collector:   rt.Collector,
		Elapsed:     clock.Now(),
		GC:          *rt.GC.Stats(),
		Breakdown:   clock.Breakdown(),
		Replicating: replicating,
		CopyLimit:   rt.copyLimit,
	}
	// A copy of the record's header, so that holding the digest does not hold
	// the collector and its heap.
	rec := *rt.GC.Pauses()
	s.Pauses = rec.Digest(s.Elapsed)
	s.MMUWindows = s.Pauses.StandardWindows()
	members := []*core.Mutator{rt.Mutator}
	if rt.Group != nil {
		members = rt.Group.Members
	}
	for _, m := range members {
		s.BytesAllocated += m.BytesAllocated
		s.LogWrites += m.LogWrites
		s.BarrierFastSkips += m.BarrierFastSkips
		s.BarrierDirtySkips += m.BarrierDirtySkips
	}
	if rt.ckpt != nil {
		cs := rt.ckpt.Stats()
		s.Checkpoint = &cs
	}
	return s
}

// CheckPauseBound holds the run's pause record to the pause bound at its L
// (core.Config.CheckPauseBound; DESIGN.md, "Pause bound"): the record says
// which pauses had a budget, whatever the collector. The text is the check as
// rtgc -worst and rtgc-bench trace print it; the error is an excess.
func (s Stats) CheckPauseBound() (string, error) {
	return core.Config{CopyLimitBytes: s.CopyLimit}.CheckPauseBound(simtime.Default1993(), s.Pauses.Pauses)
}

// Text renders the report one fact a line, each fact once: what rtgc -stats,
// rtgc-bench trace and rtgc-bench serve print. subject names what ran.
func (s Stats) Text(subject string) string {
	gc := &s.GC
	t := fmt.Sprintf("--- %s under %s (simulated time) ---\n", subject, s.Collector) +
		fmt.Sprintf("elapsed            %v\n", s.Elapsed) +
		fmt.Sprintf("allocated          %.2f MB\n", float64(s.BytesAllocated)/(1<<20)) +
		fmt.Sprintf("minor collections  %d\n", gc.MinorCollections) +
		fmt.Sprintf("major collections  %d\n", gc.MajorCollections)
	if gc.EmergencyCollections > 0 {
		t += fmt.Sprintf("emergencies        %d collections escalated to stop-the-world\n", gc.EmergencyCollections)
	}
	t += fmt.Sprintf("copied minor/major %.2f / %.2f MB\n", float64(gc.BytesCopiedMinor)/(1<<20), float64(gc.BytesCopiedMajor)/(1<<20)) +
		s.Pauses.Summary(s.MMUWindows) +
		fmt.Sprintf("log entries        %d written, %d reapplied\n", s.LogWrites, gc.LogReapplied)
	if s.Replicating {
		t += fmt.Sprintf("largest copy       %d B uninterrupted, %d copies split across pauses\n", gc.LargestCopyBytes, gc.SplitCopies) +
			fmt.Sprintf("completions        put off %d times to a pause they fit, %d overran their pause, largest flip worklist %d slots\n",
				gc.Deferrals, gc.Overruns, gc.LargestFlipWorklist) +
			fmt.Sprintf("log backlog        at most %d entries left unprocessed by a pause\n", s.Pauses.LogBacklog)
	}
	if c := s.Checkpoint; c != nil {
		t += fmt.Sprintf("checkpoints        %d committed, %d aborted, %.2f MB snapshots + %.2f MB WAL, %v charged\n",
			c.Committed, c.Aborted, float64(c.SnapshotBytes)/(1<<20), float64(c.WALBytes)/(1<<20), s.Breakdown[simtime.AcctCheckpoint])
	}
	return t
}
