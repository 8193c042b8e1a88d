package core

import (
	"cmp"
	"fmt"
	"sort"

	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// Config parameterises the replication collector with the paper's knobs.
type Config struct {
	// NurseryBytes is the paper's N: the nursery size at which a minor
	// collection is initiated.
	NurseryBytes int64
	// MajorThresholdBytes is the paper's O: a major collection begins when
	// the volume promoted by minor collections since the last major
	// exceeds it. Zero disables major collections.
	MajorThresholdBytes int64
	// CopyLimitBytes is the paper's L: the total memory the collections
	// may copy during a single pause. Zero means unlimited (stop-the-
	// world behaviour for whichever generations are marked incremental).
	// The paper's A, the nursery expansion granted per pause while an
	// incremental collection awaits completion, is L/2 (expandBytes).
	CopyLimitBytes int64

	// IncrementalMinor and IncrementalMajor select the paper's
	// configurations: both true is the real-time collector; exactly one
	// true is the minor- or major-incremental variant of §4.4's study.
	IncrementalMinor bool
	IncrementalMajor bool

	// LazyLogProcessing defers mutation-log reapplication to the moment
	// of collection completion (paper §2.5's "delay the need to process
	// the log until the last possible moment"). Used by the ablation
	// bench; off by default.
	LazyLogProcessing bool

	// DeferMutableCopies implements the paper's §2.5 copy-order
	// opportunity: "The collector could choose to concentrate early
	// replication effort on only immutable objects, and thereby delay the
	// need to process the log until the last possible moment." Mutable
	// nursery objects discovered by the Cheney scan or by log
	// reapplication are not copied immediately; the referring replica
	// slot keeps the from-space pointer (a recorded inconsistency, as the
	// invariant permits) and the copy happens in the completing
	// increment, when the object's contents are final — so its log
	// entries never need reapplying at all. Off by default.
	DeferMutableCopies bool

	// NaiveReplay disables the wall-clock hot-path optimisations of the
	// replay and scan machinery: the per-object forwarding memo that gives
	// runs of same-target log entries one header check per group, the
	// block copy() used to reapply logged byte ranges, and the batched
	// budget accounting of the Cheney scans. All three are simulated-cost
	// neutral (the clock is charged per entry, per word and per slot
	// exactly as before), so a NaiveReplay run is bit-identical in
	// simulated time and heap contents — which is what the differential
	// property tests and the before/after wall-clock benchmarks rely on.
	// Off by default.
	NaiveReplay bool

	// InterleavedTaxPermille enables the concurrent-style pacing of the
	// paper's §6 ("The replication primitive can be interleaved freely
	// with mutator activity"): instead of performing collection work in
	// discrete pauses when the nursery fills, the collector runs a small
	// work quantum every few kilobytes of allocation — a copying tax of
	// InterleavedTaxPermille bytes of copy+scan work per 1000 bytes
	// allocated. Collection starts when the nursery is half full and
	// normally completes before it fills, so the only stop-the-mutator
	// events of any size are the atomic flips, as in the authors'
	// concurrent collector. Zero disables interleaving. Requires
	// IncrementalMinor.
	InterleavedTaxPermille int

	// Record, when non-nil, accumulates the run's flip script (§4.2).
	Record *policy.Script
	// Replay, when non-nil, drives minor flip points and the major
	// schedule from a recorded script. Only honoured when IncrementalMinor
	// is false: collections that complete in one pause can be pinned to
	// the recorded allocation marks exactly.
	Replay *policy.Script
}

// maxMinorPauses bounds how many pauses one incremental minor collection may
// span before it is forced to complete non-incrementally (the paper's
// conservative completion / L lower bound, §3.3).
const maxMinorPauses = 1024

// Name describes the configuration in the paper's terms.
func (c Config) Name() string {
	switch {
	case c.IncrementalMinor && c.IncrementalMajor:
		return "rt"
	case c.IncrementalMinor:
		return "minor-inc"
	case c.IncrementalMajor:
		return "major-inc"
	default:
		return "stop-copy(core)"
	}
}

// span marks a region of words the Cheney scan must step over
// (mutator-owned objects allocated directly in the old generation).
type span struct {
	start uint64
	words uint64
}

// fixup records a to-space slot that holds a from-space pointer to a
// MUTABLE object and must be re-pointed during the major flip. Slots
// holding immutable from-space pointers are rewritten eagerly (the mutator
// cannot observe the difference between an immutable original and its
// replica), but exposing a mutable replica before the flip would let the
// mutator read or write it while the collector is still reapplying the
// original's mutation log — so mutable references stay aimed at the
// from-space original until the atomic flip.
type fixup struct {
	obj  heap.Value // a to-space object (stable address)
	slot int32
}

// generation is one generation under collection as the replication engine
// sees it: where its originals live, where their replicas go, how far the
// log cursor and the Cheney scan have got, and what the work is charged to.
// The paper runs one algorithm on both generations, so the collector holds
// two — minor (nursery → promotion space) and major (old from-space → old
// to-space) — and that algorithm's kernels (replicate, scan, scanRoots,
// redirectRoots, repoint, takeLogEntry) are written once over a *generation.
// Each generation's log-entry handler, flip worklist and increment stay its own.
type generation struct {
	name   string          // "minor" or "major", for diagnostics
	major  bool            // the scan's slot forwarder: toSpaceValue when set, minorValue otherwise
	acct   simtime.Account // copy and scan charges
	oom    OOMResource     // what a failed copy has exhausted
	copied *int64          // the generation's copy-volume counter in GCStats

	// from holds the originals, to receives the replicas. begin resolves
	// both and they hold for the cycle: the promotion space only moves
	// (a major starting) and the old semispaces only swap (a major flip)
	// right after a minor flip, when no minor cycle is active.
	from, to *heap.Space

	//gclint:pauseonly cycle activation happens inside the pause that starts the cycle; the barrier fast path reads it un-synchronized
	active bool
	//gclint:pauseonly the log cursor moves only while the mutator is stopped, else the barrier could append entries behind it
	logCursor int64 // next log entry for this generation's collection

	// Cheney state; scan describes the region each generation's cursor
	// sweeps.

	//gclint:pauseonly the cursor only advances while the mutator is stopped; a mid-scan mutation is routed through the log instead
	scan uint64 // header word of the next to-space object to scan
	//gclint:pauseonly resume state of the paused scan; only valid between increments of a stopped mutator
	scanSlot int // resume slot within the object at the cursor
	//gclint:pauseonly set once per cycle, inside the pause that starts it
	scanStart uint64 // where the cycle's scan began (audit: the scanned region)
	skips     []span // mutator-owned objects inside the scan region (minor only: NoteOldAlloc)
	//gclint:pauseonly advanced by the scan as it steps over spans, reset at cycle boundaries
	skipIdx int
	// The runs of consecutive replicas in to, in address order (major only):
	// what tells a replica from an object promoted or allocated there, which
	// is mutator-visible (hiddenHolder).
	//
	//gclint:pauseonly appended by replicate, which copies only while the mutator is stopped; reset in the pause that starts the cycle
	replicas []span
	//gclint:pauseonly advanced by the scan as the cursor passes each run, reset with the list
	replicaIdx int

	// The one replica this generation is filling across pauses (replicate);
	// its replica field is Nil when no copy is in flight.
	//
	//gclint:pauseonly the copy cursor only advances while the mutator is stopped; between pauses the log keeps the copied prefix current
	inflight copyJob
	//gclint:pauseonly set at the top of every increment and by its completing steps, all under pause
	whole bool // copies are not split: the increment is forced, or has reached the steps that end in the flip
	//gclint:pauseonly counted by the admission gate and cleared by the flip, both under pause
	deferrals int // times in a row this generation's completion attempt has been put off (deferAttempt)
}

// copyJob is a replica being filled: the payload words below next are copied.
type copyJob struct {
	orig, replica heap.Value
	next, words   int
}

// begin activates the generation's cycle: replicas of from's objects go to
// to, and the Cheney cursor starts at to's frontier.
func (g *generation) begin(from, to *heap.Space) {
	g.active = true
	g.from, g.to = from, to
	g.scan, g.scanSlot, g.scanStart = to.Next, 0, to.Next
}

// scanDone reports whether the cursor has reached the to-space frontier.
func (g *generation) scanDone() bool { return g.scan >= g.to.Next }

// noteReplica extends the replica runs by the replica just reserved at the
// to-space frontier: a new run only when something else was allocated there
// since the last one.
func (g *generation) noteReplica(replica heap.Value, words int) {
	start := uint64(replica)>>3 - 1 // header word index
	if n := len(g.replicas); n > 0 && g.replicas[n-1].start+g.replicas[n-1].words == start {
		g.replicas[n-1].words += uint64(words)
		return
	}
	g.replicas = append(g.replicas, span{start: start, words: uint64(words)})
}

// scanningReplica reports whether the object at the scan cursor is one of g's
// replicas; the runs are consumed in cursor order.
func (g *generation) scanningReplica() bool {
	for g.replicaIdx < len(g.replicas) && g.replicas[g.replicaIdx].start+g.replicas[g.replicaIdx].words <= g.scan {
		g.replicaIdx++
	}
	return g.replicaIdx < len(g.replicas) && g.replicas[g.replicaIdx].start <= g.scan
}

// isReplica is scanningReplica for any address, by binary search (the audit).
func (g *generation) isReplica(v heap.Value) bool {
	idx := uint64(v)>>3 - 1
	i := sort.Search(len(g.replicas), func(i int) bool { return g.replicas[i].start+g.replicas[i].words > idx })
	return i < len(g.replicas) && g.replicas[i].start <= idx
}

// Replicating is the replication-based incremental collector. It maintains
// the paper's from-space invariant: the mutator only ever addresses
// original objects (or replicas that have already been handed over by a
// flip); the collector incrementally builds replicas, keeps them consistent
// by reapplying the mutation log, and atomically redirects all roots at a
// flip.
//
// Generations: minor collections replicate the nursery into the old
// generation's current promotion space; when the promoted volume crosses O
// a major collection incrementally replicates the old from-space into the
// reserve semispace. While a major collection is active, minor collections
// promote directly into the major's to-space ("allocating black"), so fresh
// promotions never become major copying work — this is what lets the major
// terminate under a small L even though the mutator keeps promoting, and
// follows the approach of the authors' concurrent follow-up collector.
type Replicating struct {
	cfg    Config
	h      *heap.Heap
	stats  GCStats
	pauses PauseBracket

	// The two generations under collection. Their cursors and all per-cycle
	// collection state below are pause-only: multi-mutator sharing will make
	// unsynchronized writes to them data races, so gclint checks that every
	// writer is dominated by a pause entry (rule "pauseonly").
	minor, major generation

	// Minor collection state.

	//gclint:pauseonly deferred-copy worklist; grown by the scan and by log reapplication, drained at completion, all under pause
	pendingMut []fixup // replica slots holding deferred mutable nursery refs (§2.5)
	//gclint:pauseonly flip-entry worklist; grown while processing the log under pause, consumed at the flip
	minorRootSeqs []int64 // old-space pointer entries to re-point at the flip
	//gclint:pauseonly per-cycle pause counter, bumped once per pause
	minorPauses int // pauses spanned by the active minor collection
	//gclint:pauseonly snapshot of BytesCopiedMinor at cycle start, taken under the starting pause
	minorStartCopy int64 // BytesCopiedMinor at cycle start
	//gclint:pauseonly deferred reapply queue; filled and drained by log processing, which only runs under pause
	lazyMinorSeqs []int64 // deferred reapply queue under LazyLogProcessing

	// Major collection state.

	promotedSinceMajor int64
	//gclint:pauseonly major fixup worklist; grown by log processing and the scan, consumed at the major flip, all under pause
	fixups []fixup
	//gclint:pauseonly dedup set for fixups; same pause-only lifecycle as the worklist it guards
	fixupSeen       map[fixup]struct{} // dedup: a slot is queued once
	forcedMajorFlip bool               // replay wants a major flip at the next minor flip

	// Replay memo: consecutive log entries overwhelmingly target the same
	// object (the barrier logs a dirtied array slot by slot), so the
	// forwarding lookup — two arena reads and the space dispatch — is done
	// once per run of same-object entries and cached here. A memo for an
	// unforwarded object is only trusted while no copy has happened since
	// (the stamp below), because any replication may forward it; a
	// forwarded object's replica address is stable until the next flip,
	// which resets the memo.

	//gclint:pauseonly the memo is only consulted by log processing, which runs under pause
	memoObj heap.Value // last log-entry target; Nil when the memo is empty
	//gclint:pauseonly same pause-only lifecycle as memoObj
	memoReplica heap.Value
	//gclint:pauseonly same pause-only lifecycle as memoObj
	memoFwd bool
	//gclint:pauseonly total bytes copied when the memo was taken; detects forwarding installed since
	memoStamp int64

	replay    *policy.Cursor
	finishing bool // inside FinishCycles: flips are not recorded

	// Degradation-ladder state. promoHighWater is the largest volume one
	// minor cycle has ever promoted; the headroom reservation (DESIGN.md,
	// "Failure model") keeps that many bytes plus the current nursery
	// contents free in the promotion target, forcing completion (and an
	// early major) before a mid-copy overflow can happen. emergency marks
	// a pause promoted to full stop-the-world completion.
	promoHighWater int64
	emergency      bool

	// Interleaved pacing state.
	taxCredit  int64 // accumulated work credit in bytes
	microLimit int64 // per-micro-pause work budget (0: normal pauses)

	// Test seams (export_test.go); zero outside tests. splitMin replaces the
	// split threshold L/4, chunkWords caps the words one fill moves, expandMin
	// and pauseCap replace A = L/2 and maxMinorPauses; noHiding, noGate and
	// noLogMeter switch off toSpaceValue's hidden holders, the admission gate
	// (deferAttempt) and takeLogEntry's budget test for the differential tests.
	splitMin   int64
	chunkWords int
	expandMin  int64
	pauseCap   int
	noHiding   bool
	noGate     bool
	noLogMeter bool

	// The instant on the simulated clock at which the pause in progress has
	// spent its budget (pause, extend); 0 when it has none.
	//
	//gclint:pauseonly set when the pause begins, pushed out by what the budget does not count, all under pause
	deadline simtime.Duration

	// ckpt, when set, is called at the tail of every pause (still inside
	// the pause window) so the checkpoint writer can advance its snapshot
	// cursor under the same stopped-mutator guarantee collection work has.
	ckpt Checkpointer
}

// NewReplicating builds a collector over h. Attach it to the mutator with
// m.AttachGC. The mutator must use LogAllMutations: replication collection
// is incorrect without a complete mutation log.
func NewReplicating(h *heap.Heap, cfg Config) *Replicating {
	c := &Replicating{cfg: cfg, h: h}
	c.pauses = NewPauseBracket(&c.stats)
	c.minor = generation{name: "minor", acct: simtime.AcctMinorCopy, oom: OOMPromotion, copied: &c.stats.BytesCopiedMinor}
	c.major = generation{name: "major", major: true, acct: simtime.AcctMajorCopy, oom: OOMToSpace, copied: &c.stats.BytesCopiedMajor}
	h.Nursery.SetLimitBytes(cfg.NurseryBytes)
	if cfg.Replay != nil {
		c.replay = policy.NewCursor(cfg.Replay)
		if d, ok := c.replay.NurseryDelta(0); ok {
			h.Nursery.SetLimitBytes(d)
		}
	}
	return c
}

// Name implements Collector.
func (c *Replicating) Name() string { return c.cfg.Name() }

// Stats implements Collector.
func (c *Replicating) Stats() *GCStats { return &c.stats }

// Pauses implements Collector.
func (c *Replicating) Pauses() *simtime.Recorder { return &c.pauses.Rec }

// SetTrace attaches an event recorder; nil detaches it. Trace emission
// charges nothing to the simulated clock, so traced and untraced runs are
// bit-for-bit identical.
func (c *Replicating) SetTrace(r *trace.Recorder) { c.pauses.Trace = r }

// AfterAlloc implements Collector; flip points are steered by nursery
// limits, so nothing happens here.
func (c *Replicating) AfterAlloc(m *Mutator) {}

// PromoteSpace reports where promotions (and oversized direct allocations)
// go: the old from-space normally, the major's to-space while a major
// collection is in progress.
func (c *Replicating) PromoteSpace() *heap.Space {
	if c.major.active {
		return c.h.OldTo()
	}
	return c.h.OldFrom()
}

// NoteOldAlloc records an object allocated directly in the old generation
// (oversized allocations). It counts toward the major threshold O, and it
// must be excluded from the Cheney scan: the object is owned by the mutator
// (it is not a replica), so rewriting its nursery pointers before the flip
// would violate the from-space invariant. Its old→new and old→old pointers
// reach the collector through Init's logging instead.
func (c *Replicating) NoteOldAlloc(p heap.Value, hdr heap.Header) {
	c.promotedSinceMajor += hdr.SizeBytes()
	if c.minor.active {
		// The object sits inside the current minor scan region but is
		// owned by the mutator; the scan must step over it. Its contents
		// reach the collector through Init's logging. (Between cycles
		// nothing is needed: startMinor puts the cursor at the frontier.)
		start := uint64(p)>>3 - 1 // header word index
		c.minor.skips = append(c.minor.skips, span{start: start, words: uint64(hdr.SizeWords())})
	}
}

// workLimit returns the per-pause work allowance in bytes of copy+scan
// traffic, or 0 for unlimited. L bounds the memory *copied* per pause
// (paper §3.3); since every copied byte is also scanned exactly once over a
// collection's lifetime, bounding copy+scan at 2L yields steady pauses of
// about L / (2 MB/s) — 50 ms at the paper's L = 100 KB. The allowance is
// spent as time (budget): whatever a pause does, it does in the time copying
// and scanning that many bytes would take.
func (c *Replicating) workLimit() int64 {
	if c.microLimit > 0 {
		return c.microLimit
	}
	if c.cfg.CopyLimitBytes <= 0 || !c.cfg.IncrementalMinor && !c.cfg.IncrementalMajor {
		return 0
	}
	return 2 * c.cfg.CopyLimitBytes
}

// splitBytes is the size above which a copy that does not fit in what is left
// of the pause's budget is filled over several pauses: L/4, so that a budgeted
// pass overshoots 2L by less than a quarter of L (PauseCopyBound).
func (c *Replicating) splitBytes() int64 { return cmp.Or(c.splitMin, c.cfg.CopyLimitBytes/4) }

// expandBytes is the paper's A: the nursery expansion granted per pause while
// an incremental collection awaits completion — L/2, the paper's choice.
func (c *Replicating) expandBytes() int64 { return cmp.Or(c.expandMin, c.cfg.CopyLimitBytes/2) }

// PauseCopyBound is the copy term of the pause bound (DESIGN.md, "Pause
// bound"): the most a budgeted pause copies, whatever the size of the largest
// object — the work limit 2L plus one object no larger than the threshold.
func (c Config) PauseCopyBound() int64 { return 2*c.CopyLimitBytes + c.CopyLimitBytes/4 }

// PauseBoundTime is the pause bound: how long a budgeted pause that is not a
// counted overrun lasts at most, whatever it spends the time on. Every
// resumable loop stops once the budget's time — that of copying and scanning
// 2L bytes — has passed, the atomic steps are admitted only if they fit it
// (deferAttempt), and the last unit of work begun inside it is one log entry
// or scanned slot and the one object, no larger than the split threshold, that
// it reached.
func (c Config) PauseBoundTime(cost simtime.CostModel) simtime.Duration {
	return workTime(cost, c.PauseCopyBound()) + max(cost.LogScan+cost.LogReapply, cost.ScanWord)
}

// CheckPauseBound holds a finished run's pause record to the bound and renders
// the check as rtgc -worst and rtgc-bench trace print it: a line for every
// counted overrun, then the "pause bound:" line. The record alone says which
// pauses had a budget: a Forced one had none; every other one copies at most
// PauseCopyBound bytes, and one longer than PauseBoundTime is the error unless
// it is a counted overrun. A pause's checkpoint phase is not part of its length
// here: the checkpoint writer runs after the budgeted work.
func (c Config) CheckPauseBound(cost simtime.CostModel, pauses []simtime.Pause) (string, error) {
	bound, copyBound := c.PauseBoundTime(cost), c.PauseCopyBound()
	longest, most, budgeted, text := simtime.Duration(0), int64(0), 0, ""
	for i, p := range pauses {
		if p.Forced { // no budget to hold it to
			continue
		}
		budgeted++
		if p.CopiedB > copyBound {
			return text, fmt.Errorf("pause %d copied %d B, over the bound 2L + L/4 = %d B", i, p.CopiedB, copyBound)
		}
		most = max(most, p.CopiedB)
		switch length := p.Length - p.PhaseTime[simtime.PhaseCheckpoint]; {
		case p.Unbudgeted(): // a counted overrun
			text += fmt.Sprintf("overrun: pause %d is %v long, %v of it a completion attempt let through over budget (%d root slots and %d worklist slots flipped)\n",
				i, length, p.Overrun, p.RootSlots, p.FlipEntries)
		case length > bound:
			return text, fmt.Errorf("pause %d is %v long (%d B copied, %d log entries, %d root slots and %d worklist slots flipped), over the bound %v",
				i, length, p.CopiedB, p.LogProcN, p.RootSlots, p.FlipEntries, bound)
		default:
			longest = max(longest, length)
		}
	}
	if budgeted == 0 {
		return fmt.Sprintf("pause bound: none of the %d pauses had a budget\n", len(pauses)), nil
	}
	return text + fmt.Sprintf("pause bound: the longest budgeted pause is %v of %v; the most one copied is %d B of 2L + L/4 = %d B\n",
		longest, bound, most, copyBound), nil
}

// workTime is the longest that copy+scan work of so many bytes takes.
func workTime(cost simtime.CostModel, bytes int64) simtime.Duration {
	return simtime.Duration(bytes/heap.BytesPerWord) * max(cost.CopyWord, cost.ScanWord)
}

// taxQuantum is the work size of one interleaved micro-pause (bytes of
// copy+scan); 4 KB is about one millisecond at the paper's copying rate.
const taxQuantum = 4 << 10

// AllocTax implements the interleaved (concurrent-style) pacing: called at
// the top of every allocation, before the object exists, which is a safe
// point — a flip here redirects all roots and the caller holds no
// unprotected heap values.
//
//gclint:pauseentry the allocation top is a safe point; cycle state only changes inside c.pause, never on the tax-accounting prefix
func (c *Replicating) AllocTax(m *Mutator, bytes int64) error {
	if c.cfg.InterleavedTaxPermille <= 0 {
		return nil
	}
	c.taxCredit += bytes * int64(c.cfg.InterleavedTaxPermille) / 1000
	if c.taxCredit < taxQuantum {
		return nil
	}
	if !c.minorDue() && !c.major.active {
		// Nothing worth doing yet; keep a bounded credit so an idle
		// stretch does not bank an unbounded work debt.
		if c.taxCredit > 4*taxQuantum {
			c.taxCredit = 4 * taxQuantum
		}
		return nil
	}
	c.microLimit, c.taxCredit = c.taxCredit, 0
	err := c.pause(m, 0, false)
	c.microLimit = 0
	return err
}

// minorDue reports whether a micro-pause has minor work to do: a minor
// collection is active, or the nursery is half full.
func (c *Replicating) minorDue() bool {
	return c.minor.active || c.h.Nursery.UsedBytes() >= c.cfg.NurseryBytes/2
}

// CollectForAlloc implements Collector: one garbage-collection pause.
func (c *Replicating) CollectForAlloc(m *Mutator, needWords int) error {
	return c.pause(m, needWords, false)
}

// FinishCycles implements Collector: drive all pending incremental work to
// completion so total copy volumes are comparable across configurations.
func (c *Replicating) FinishCycles(m *Mutator) error {
	// Run ordinary budgeted pauses so the tail of the run has the same
	// bounded-pause behaviour as the rest; fall back to forced completion
	// only if the collection fails to converge. Flips forced here are an
	// end-of-run artifact and are not recorded into policy scripts.
	c.finishing = true
	defer func() { c.finishing = false }()
	for i := 0; c.minor.active || c.major.active; i++ {
		if err := c.pause(m, 0, i > 1<<16); err != nil {
			return err
		}
	}
	return nil
}

// CollectEmergency implements EmergencyCollector: one honest stop-the-world
// pause that drives the active cycles to completion and forces a full major
// collection, compacting the old generation so a failed direct allocation
// can retry. The long pause is charged to simulated time and recorded like
// any other.
func (c *Replicating) CollectEmergency(m *Mutator) error {
	c.stats.EmergencyCollections++
	c.emergency = true
	return c.pause(m, 0, true)
}

// pause stops the mutator and performs one increment of collection work.
// When force is set the pause ignores budgets and completes everything.
// The pause is always charged and recorded — including when it ends in a
// typed exhaustion error, so degraded runs report honest long pauses.
//
//gclint:pauseentry Clock.BeginPause stops the (single) mutator before any collector state changes; every collector entry point funnels through here
func (c *Replicating) pause(m *Mutator, needWords int, force bool) error {
	c.pauses.Begin(m)
	// Every pause, micro-pauses included, starts a fresh log-coalescing
	// epoch before any cursor moves: dirty bits set by the barrier since
	// the previous pause vouch for entries this pause may now consume, so
	// they must expire here (heap/stamp.go spells out the invariant).
	c.h.BeginLogEpoch()
	c.deadline = 0
	if budget := c.budget(m); budget > 0 {
		c.deadline = c.pauses.cur.At + budget
	}
	kind := simtime.PauseMinor
	var err error
	if c.microLimit > 0 && !c.minorDue() {
		// An interleaved micro-pause in which only the major collection has
		// work pending: a mid-cycle major increment, without forcing a
		// (trivial) minor collection.
		_, err = c.runMajorIncrement(m, false, false)
	} else {
		err = c.pauseBody(m, needWords, force, &kind)
		if c.ckpt != nil {
			end := c.pauses.Phase(m, simtime.PhaseCheckpoint)
			c.ckpt.PauseCheckpoint(m, c.checkpointPoint())
			end()
		}
	}
	c.pauses.cur.LogLeft = m.Log.Len() - c.minor.logCursor
	if c.major.active {
		c.pauses.cur.LogLeft += m.Log.Len() - c.major.logCursor
	}
	// A forced or emergency pause admits no overlap (pauseBody may have
	// escalated on low headroom after entry).
	c.pauses.End(m, kind, force || c.emergency)
	c.emergency = false
	return err
}

// pauseBody is the work of one pause; pause wraps it so the clock and the
// recorder see every pause, successful or not. The record marks a pause with
// no budget Forced: one that forced its minor collection to completion — the
// non-incremental minor of major-inc and stop-copy-core among them — or ran a
// non-incremental major increment.
func (c *Replicating) pauseBody(m *Mutator, needWords int, force bool, kind *simtime.PauseKind) error {
	// Degradation ladder, headroom reservation: if the promotion target
	// cannot absorb a worst-case cycle (everything currently in the
	// nursery plus the recorded high-water mark as reserve), finish all
	// incremental work now, in one long pause, rather than risk an
	// unrecoverable overflow in the middle of a later copy.
	if !force && c.lowHeadroom() {
		force = true
		c.emergency = true
		c.stats.EmergencyCollections++
		c.forcedCompletion()
	}
	if c.emergency {
		// Here, or in CollectEmergency before the pause began, the pause
		// escalated: mark the rung as a distinct (instantaneous) phase.
		c.pauses.Phase(m, simtime.PhaseEmergency)()
	}

	if !c.minor.active {
		c.startMinor(m)
	}
	c.minorPauses++
	capped := c.minorPauses > cmp.Or(c.pauseCap, maxMinorPauses)
	forceMinor := force || !c.cfg.IncrementalMinor || capped
	if capped {
		c.forcedCompletion()
	}
	c.pauses.cur.Forced = c.pauses.cur.Forced || forceMinor

	needB := int64(needWords) * heap.BytesPerWord
	done, err := c.runMinorIncrement(m, forceMinor)
	if err != nil {
		return err
	}
	if done {
		majorFlipped, err := c.afterMinorFlip(m, force)
		if err != nil {
			return err
		}
		if majorFlipped && !c.cfg.IncrementalMajor {
			*kind = simtime.PauseMajor
		}
	} else if needWords > 0 || c.h.Nursery.FreeWords() == 0 {
		// Await completion: grant the mutator room to keep allocating
		// (paper parameter A), enough for the pending allocation. Pauses
		// that were not forced by a failed allocation (interleaved micro-
		// pauses) skip the expansion — the nursery still has room.
		granted := c.h.Nursery.GrowBytes(max(c.expandBytes(), needB))
		c.stats.NurseryExpansion += granted
		if granted < needB {
			// Expansion bound blown: conservative completion (the
			// ladder's first rung).
			c.forcedCompletion()
			done, err := c.runMinorIncrement(m, true)
			if err != nil {
				return err
			}
			if !done {
				//gclint:allow panicpath -- invariant: a forced increment has no budget to run out of
				panic("core: forced minor completion did not complete")
			}
			if _, err := c.afterMinorFlip(m, force); err != nil {
				return err
			}
		}
	}
	// Whatever room the pause leaves — N, the A of a deferred flip, a nursery
	// at its expansion bound — the blocked allocation must fit: regrow toward
	// the cap for it. Only if the nursery still cannot hold the request does
	// Alloc surface the typed error.
	if free := c.h.Nursery.LimitBytes() - c.h.Nursery.UsedBytes(); free < needB {
		c.stats.NurseryExpansion += c.h.Nursery.GrowBytes(needB - free)
	}
	return nil
}

// forcedCompletion counts an incremental collection made to complete in the
// pause in progress, which from here on has no budget to be held to.
func (c *Replicating) forcedCompletion() {
	c.stats.ForcedCompletion++
	c.pauses.cur.Forced = true
}

// lowHeadroom reports whether the promotion target is at risk of
// overflowing: its free bytes are below the worst case the active (or
// next) minor cycle can promote — the nursery's current contents — plus
// the promotion high-water mark as a safety reserve. The trigger depends
// only on simulated-heap state, so fault plans and replays stay
// deterministic.
func (c *Replicating) lowHeadroom() bool {
	free := int64(c.PromoteSpace().FreeWords()) * heap.BytesPerWord
	return free < c.h.Nursery.UsedBytes()+c.promoHighWater
}

// startMinor begins a minor collection cycle.
func (c *Replicating) startMinor(m *Mutator) {
	c.minorPauses = 0
	c.minorStartCopy = c.stats.BytesCopiedMinor
	// The minor log cursor persists across cycles: entries logged since
	// the previous flip are this cycle's remembered set. The minor scan
	// cursor tracks the promotion frontier; everything below it belongs
	// to earlier cycles (and, during a major, to the major scan).
	c.minor.begin(&c.h.Nursery, c.PromoteSpace())
}

// budget is the pause's allowance as time: what copying and scanning
// workLimit() bytes take, 51.2 ms at the paper's L; 0 for unlimited. A pause
// has spent it at its deadline, that long after it began.
func (c *Replicating) budget(m *Mutator) simtime.Duration { return workTime(m.Cost, c.workLimit()) }

// extend pushes the pause's deadline out by time the budget does not count:
// the cost of a completion attempt let through over budget (deferAttempt), and
// an increment that ran with no budget at all (runMinorIncrement).
func (c *Replicating) extend(d simtime.Duration) {
	if c.deadline > 0 {
		c.deadline += d
	}
}

// overBudget reports whether the current pause has used its allowance. It is
// the one budget test: copying, scanning, log replay and the root passes all
// stop at it, and what cannot stop part-way is admitted against the same
// instant before it starts (deferAttempt).
func (c *Replicating) overBudget(m *Mutator, force bool) bool {
	return !force && c.deadline > 0 && m.Clock.Now() >= c.deadline
}

// budgetSlots reports how many units of work at each duration the current
// pause may still begin before overBudget would stop it: exactly
// ceil(remaining/each), so a batch of this many charges lands the cursor on the
// identical slot a check-every-slot loop would stop at. A non-positive return
// means the budget is already spent; unlimited budgets report maxInt.
func (c *Replicating) budgetSlots(m *Mutator, force bool, each simtime.Duration) int {
	if force || c.deadline <= 0 || each <= 0 {
		return int(^uint(0) >> 1)
	}
	rem := c.deadline - m.Clock.Now()
	if rem <= 0 {
		return 0
	}
	return int((rem + each - 1) / each)
}

// forwardingOf resolves the forwarding state of a log-entry target through
// the replay memo: one header check per run of same-object entries instead
// of one per entry. Under NaiveReplay the memo is bypassed and every call
// reads the header, restoring the unbatched wall-clock behaviour (the
// resolved state is identical either way).
func (c *Replicating) forwardingOf(obj heap.Value) (replica heap.Value, fwd bool) {
	if !c.cfg.NaiveReplay && obj == c.memoObj && obj != heap.Nil &&
		(c.memoFwd || c.memoStamp == c.stats.TotalBytesCopied()) {
		return c.memoReplica, c.memoFwd
	}
	h := c.h
	fwd = h.IsForwarded(obj)
	if fwd {
		replica = h.ForwardAddr(obj)
	}
	if !c.cfg.NaiveReplay {
		c.memoObj = obj
		c.memoReplica = replica
		c.memoFwd = fwd
		c.memoStamp = c.stats.TotalBytesCopied()
	}
	return replica, fwd
}

// resetReplayMemo empties the memo. Flips are the moments forwarding words
// disappear (the nursery resets, the old semispaces swap) and heap
// addresses get reused, so every flip must drop the cache.
func (c *Replicating) resetReplayMemo() {
	c.memoObj = heap.Nil
	c.memoReplica = heap.Nil
	c.memoFwd = false
	c.memoStamp = 0
}

// runMinorIncrement performs one increment of the minor collection and
// reports whether the collection completed (including its flip). A typed
// exhaustion error leaves the cycle active and resumable: every cursor
// stops exactly at the failed unit of work.
//
// An increment that runs with no budget — the non-incremental minor of
// major-inc, a forced completion — is outside the pause's: the major's
// increment after it has all of it, or a root set too long for the budget
// would leave the major nothing, pause after pause.
func (c *Replicating) runMinorIncrement(m *Mutator, force bool) (bool, error) {
	from := m.Clock.Now()
	done, err := c.minorIncrement(m, force)
	if force {
		c.extend(m.Clock.Now() - from)
	}
	return done, err
}

func (c *Replicating) minorIncrement(m *Mutator, force bool) (bool, error) {
	g := &c.minor
	g.whole = force
	if !c.resumeCopy(m, g) {
		return false, nil
	}

	// 1. Process the mutation log: discover minor roots (old-space slots
	// holding nursery pointers) and keep replicas up to date. The paper's
	// log processing ignores L (§3.4); this one stops when the pause's
	// budget is spent and resumes from the same cursor at the next pause.
	endPhase := c.pauses.Phase(m, simtime.PhaseLogReplay)
	done, err := c.processMinorLog(m, force)
	endPhase()
	if !done {
		return false, err
	}

	// 2. Cheney scan of the objects promoted this cycle.
	if done, err := c.scanPhase(m, g, force); !done {
		return false, err
	}

	// 3. The log is drained and the scan has caught up: attempt
	// completion. Only now are the mutator roots scanned — intermediate
	// increments make their progress through the log and the Cheney scan,
	// so the (per-pause-constant) root-scan cost is paid once per
	// collection rather than once per increment — and only by an attempt
	// the gate admits: the pass over the roots, the flip's second one and
	// its worklist must fit what is left of the pause. Root referents are
	// replicated within the budget; an aborted pass is retried by a later
	// increment.
	roots := m.Roots.Slots()
	if c.deferAttempt(m, g, &force, 2*len(roots), len(c.minorRootSeqs)) {
		return false, nil
	}
	if done, err := c.scanRoots(m, g, roots, force); !done {
		return false, err
	}
	// The roots may have enqueued fresh copies; finish scanning them.
	if done, err := c.scanPhase(m, g, force); !done {
		return false, err
	}
	// What those copies took the flip may no longer have.
	if c.deferAttempt(m, g, &force, len(roots), len(c.minorRootSeqs)) {
		return false, nil
	}

	// From here to the flip nothing is budgeted and no copy is in flight (the
	// scan is at the frontier): what the completing steps copy, they copy whole.
	g.whole = true

	// 4. Lazy mode deferred its reapplies to this moment.
	if c.cfg.LazyLogProcessing {
		endPhase = c.pauses.Phase(m, simtime.PhaseLogReplay)
		err := c.drainLazyMinor(m)
		endPhase()
		if err != nil {
			return false, err
		}
		// Reapplication may have replicated new objects; finish scanning.
		if done, err := c.scanPhase(m, g, true); !done {
			if err != nil {
				return false, err
			}
			//gclint:allow panicpath -- invariant: a forced scan has no budget to run out of
			panic("core: lazy completion scan did not finish")
		}
	}
	// Deferred mutable copies happen now, when their contents are final;
	// each round of copies can expose more deferred references, so loop
	// to a fixpoint.
	for len(c.pendingMut) > 0 {
		endPhase = c.pauses.Phase(m, simtime.PhaseCopy)
		err := c.drainPendingMutables(m)
		var done bool
		if err == nil {
			done, err = c.scan(m, g, true)
		}
		endPhase()
		if err != nil {
			return false, err
		}
		if !done {
			//gclint:allow panicpath -- invariant: a forced scan has no budget to run out of
			panic("core: pending-mutable completion scan did not finish")
		}
	}
	if g.logCursor != m.Log.Len() {
		return false, nil
	}

	endPhase = c.pauses.Phase(m, simtime.PhaseFlip)
	err = c.minorFlip(m)
	endPhase()
	if err != nil {
		return false, err
	}
	return true, nil
}

// scanPhase runs the Cheney scan as one traced copy phase.
func (c *Replicating) scanPhase(m *Mutator, g *generation, force bool) (bool, error) {
	endPhase := c.pauses.Phase(m, simtime.PhaseCopy)
	done, err := c.scan(m, g, force)
	endPhase()
	return done, err
}

// scanRoots is a collection's completion pass over the mutator roots: every
// root referent still in from-space is replicated, within the budget. The
// roots themselves are only redirected at the flip. It reports whether the
// pass reached the last root; an aborted pass is simply run again.
func (c *Replicating) scanRoots(m *Mutator, g *generation, roots []*heap.Value, force bool) (bool, error) {
	endPhase := c.pauses.Phase(m, simtime.PhaseRootScan)
	// roots is Roots.Slots' reusable buffer, enumerated by the caller for the
	// admission gate: no per-scan closure allocations, and the loop can stop
	// the moment the budget runs out. Every slot is still charged (the root
	// scan visits them all).
	c.stats.RootSlotUpdates += int64(len(roots))
	m.Clock.Charge(simtime.AcctRootScan, simtime.Duration(len(roots))*m.Cost.RootUpdate)
	done := true
	var err error
	for _, slot := range roots {
		if v := *slot; g.from.Contains(v) {
			if _, err = c.replicate(m, g, v); err != nil || c.overBudget(m, force) {
				done = false
				break
			}
		}
	}
	endPhase()
	return done, err
}

// takeLogEntry consumes and charges the entry at g's log cursor; it reports
// false, taking nothing, once the pause's budget is spent: the next increment
// resumes from the same cursor.
func (c *Replicating) takeLogEntry(m *Mutator, g *generation, force bool) (int64, LogEntry, bool) {
	if !c.noLogMeter && c.overBudget(m, force) {
		return 0, LogEntry{}, false
	}
	seq := g.logCursor
	g.logCursor++
	c.stats.LogScanned++
	m.Clock.Charge(simtime.AcctLogScan, m.Cost.LogScan)
	return seq, m.Log.At(seq), true
}

// rewindLogEntry puts the entry just taken back, so that a later increment
// resumes exactly at it, and returns the log loop's not-done result.
func (c *Replicating) rewindLogEntry(g *generation, err error) (bool, error) {
	g.logCursor--
	c.stats.LogScanned--
	return false, err
}

// processMinorLog consumes pending log entries for the minor collection;
// it reports whether the log was fully drained. On a typed exhaustion
// error the cursor is rewound to the failed entry so a later (degraded)
// increment resumes exactly there.
func (c *Replicating) processMinorLog(m *Mutator, force bool) (bool, error) {
	h, g := c.h, &c.minor
	for g.logCursor < m.Log.Len() {
		seq, e, ok := c.takeLogEntry(m, g, force)
		if !ok {
			return false, nil
		}
		switch {
		case h.Nursery.Contains(e.Obj):
			if c.cfg.LazyLogProcessing {
				c.lazyMinorSeqs = append(c.lazyMinorSeqs, seq)
				continue
			}
			if err := c.reapplyMinor(m, e); err != nil {
				return c.rewindLogEntry(g, err)
			}
		case h.OldFrom().Contains(e.Obj), h.OldTo().Contains(e.Obj):
			// A mutation to an old object: a minor root when it stores a
			// nursery pointer. (Old-to objects are mutator-visible while
			// a major collection is active: promoted objects and direct
			// allocations live there.)
			if e.Byte {
				continue // byte data holds no roots
			}
			v := h.Load(e.Obj, int(e.Slot))
			if h.Nursery.Contains(v) {
				if _, err := c.replicate(m, g, v); err != nil {
					return c.rewindLogEntry(g, err)
				}
				c.minorRootSeqs = append(c.minorRootSeqs, seq)
			}
		}
	}
	return true, nil
}

// reapplyBytes brings a replica's bytes up to date with one logged byte-range
// mutation of its original.
func (c *Replicating) reapplyBytes(replica heap.Value, e LogEntry) {
	h := c.h
	if c.cfg.NaiveReplay {
		for i := int32(0); i < e.Len; i++ {
			h.StoreByte(replica, int(e.Slot+i), h.LoadByte(e.Obj, int(e.Slot+i)))
		}
	} else {
		h.CopyPayloadBytes(replica, e.Obj, int(e.Slot), int(e.Len))
	}
}

// reapplyMinor brings the replica of a mutated, already-replicated nursery
// object up to date with one logged mutation.
func (c *Replicating) reapplyMinor(m *Mutator, e LogEntry) error {
	h := c.h
	replica, fwd := c.forwardingOf(e.Obj)
	if !fwd {
		return nil // not yet replicated; the copy will carry current contents
	}
	c.stats.LogReapplied++
	m.Clock.Charge(simtime.AcctLogReapply, m.Cost.LogReapply)
	if e.Byte {
		c.reapplyBytes(replica, e)
		return nil
	}
	var err error
	v := h.Load(e.Obj, int(e.Slot))
	if h.Nursery.Contains(v) {
		v, err = c.minorValue(m, v, replica, int(e.Slot))
	} else {
		// A minor replica is mutator-visible from this cycle's flip on.
		v, err = c.toSpaceValue(m, v, replica, int(e.Slot), false)
	}
	if err != nil {
		return err // replica slot untouched; reapplying again later is safe
	}
	h.Store(replica, int(e.Slot), v)
	// Storing a to-space reference needs no further action even when the
	// replica has already been passed by the major cursor: every old-to
	// object is scanned by address, so the referent is covered regardless.
	return nil
}

// drainLazyMinor reapplies all deferred mutations at completion time. The
// queue is only truncated once every entry has been applied, so an
// exhaustion error mid-drain is retried from the top (reapplication is
// idempotent: it copies the original's current contents).
func (c *Replicating) drainLazyMinor(m *Mutator) error {
	for _, seq := range c.lazyMinorSeqs {
		if seq < m.Log.Base() {
			//gclint:allow panicpath -- invariant: trimLog keeps every queued lazy entry alive
			panic("core: lazy log entry trimmed prematurely")
		}
		if err := c.reapplyMinor(m, m.Log.At(seq)); err != nil {
			return err
		}
	}
	c.lazyMinorSeqs = c.lazyMinorSeqs[:0]
	return nil
}

// minorValue prepares a nursery value for storage into a replica slot.
// Under DeferMutableCopies, references to not-yet-copied mutable objects
// are left pointing into the nursery and the slot is queued; the copy (and
// the slot fix) happen in the completing increment.
func (c *Replicating) minorValue(m *Mutator, v heap.Value, slotObj heap.Value, slot int) (heap.Value, error) {
	h := c.h
	if h.IsForwarded(v) {
		return h.ForwardAddr(v), nil
	}
	if c.cfg.DeferMutableCopies && heap.Header(h.RawHeader(v)).Kind().Mutable() {
		c.pendingMut = append(c.pendingMut, fixup{obj: slotObj, slot: int32(slot)})
		return v, nil
	}
	return c.replicate(m, &c.minor, v)
}

// drainPendingMutables copies the deferred mutable objects and re-points
// the recorded slots; runs at completion, when contents are final. The
// queue is only truncated after a full pass: slots already re-pointed no
// longer hold nursery values, so a resumed pass skips them.
func (c *Replicating) drainPendingMutables(m *Mutator) error {
	h := c.h
	for _, f := range c.pendingMut {
		v := h.Load(f.obj, int(f.slot))
		if !h.Nursery.Contains(v) {
			continue // overwritten since; a later entry handled it
		}
		nv, err := c.replicate(m, &c.minor, v)
		if err != nil {
			return err
		}
		h.Store(f.obj, int(f.slot), nv)
	}
	c.pendingMut = c.pendingMut[:0]
	return nil
}

// replicate ensures v (an object in g's from-space) has a replica in g's
// to-space and returns the replica pointer. The original stays intact — its
// header word now carries the forwarding pointer (paper §3.2). The replica
// lands at the to-space frontier, above g's cursor, so the Cheney scan
// reaches it without any queueing. Overflow of the to-space surfaces as a
// typed *OOMError; v is left unforwarded and the heap is still auditable
// (the headroom reservation in pauseBody exists to make this path
// unreachable in practice).
//
// All of the replica is reserved, and v forwarded to it, at once; how much of
// the payload is copied now is fill's decision. A replica left unfinished is
// g's in-flight copy, which the next increment resumes before anything else;
// DESIGN.md, "Pause bound", says why a half-filled replica is harmless.
func (c *Replicating) replicate(m *Mutator, g *generation, v heap.Value) (heap.Value, error) {
	h := c.h
	if h.IsForwarded(v) {
		return h.ForwardAddr(v), nil
	}
	hdr := heap.Header(h.RawHeader(v))
	replica, ok := h.ReserveReplica(v, g.to)
	if !ok {
		return heap.Nil, &OOMError{
			Resource:  g.oom,
			Collector: c.Name(),
			Space:     g.to.Name,
			Request:   hdr.SizeBytes(),
			Free:      int64(g.to.FreeWords()) * heap.BytesPerWord,
			Limit:     g.to.LimitBytes(),
			Degraded:  c.emergency,
		}
	}
	if g.major {
		g.noteReplica(replica, hdr.SizeWords())
	}
	job := copyJob{orig: v, replica: replica, words: hdr.PayloadWords()}
	c.fill(m, g, &job, 1) // the header word travelled with the reservation
	if job.next < job.words {
		g.inflight = job
		c.stats.SplitCopies++
	}
	return replica, nil
}

// fill copies the next payload words of job's replica and charges them, with
// the extra words the caller has already moved, as one uninterrupted copy. It
// copies all that is left unless that is both more than the split threshold
// and more than the pause's remaining budget: then it stops where the budget
// does. Forced increments and the steps that end in a flip do not split
// (g.whole), nor does a second large object met while the one in-flight record
// is taken, which only a fill capped below the budget (chunkWords) leaves room for.
func (c *Replicating) fill(m *Mutator, g *generation, job *copyJob, extra int) {
	n := job.words - job.next
	// The size test comes first: it fails for all but a handful of objects.
	if size := int64(n+extra) * heap.BytesPerWord; size > c.splitBytes() && !g.whole &&
		(job == &g.inflight || g.inflight.replica == heap.Nil) {
		if fits := c.budgetSlots(m, false, m.Cost.CopyWord); n+extra > fits {
			n = max(fits-extra, 0)
			if c.chunkWords > 0 {
				n = min(n, c.chunkWords)
			}
		}
	}
	c.h.CopyWords(job.replica, job.orig, job.next, n)
	job.next += n
	b := int64(n+extra) * heap.BytesPerWord
	*g.copied += b
	c.stats.LargestCopyBytes = max(c.stats.LargestCopyBytes, b)
	m.Clock.Charge(g.acct, simtime.Duration(n+extra)*m.Cost.CopyWord)
}

// resumeCopy continues g's in-flight copy, the first work of every increment,
// and reports whether none is left: an increment that could not finish it has
// spent its budget and does nothing else.
func (c *Replicating) resumeCopy(m *Mutator, g *generation) bool {
	if g.inflight.replica == heap.Nil {
		return true
	}
	endPhase := c.pauses.Phase(m, simtime.PhaseCopy)
	c.fill(m, g, &g.inflight, 0)
	endPhase()
	if g.inflight.next < g.inflight.words {
		return false
	}
	g.inflight = copyJob{}
	return true
}

// mustNotBeCopying guards the flips: a flip hands the mutator the replicas,
// and a half-filled one is not the object yet.
func (g *generation) mustNotBeCopying() {
	if g.inflight.replica != heap.Nil {
		//gclint:allow panicpath -- invariant: the scan cannot pass an in-flight replica, and a flip needs the scan at the frontier
		panic(fmt.Sprintf("core: %s flip with a copy in flight", g.name))
	}
}

// toSpaceValue prepares a value for storage into a to-space slot while a
// major collection is active. From-space referents are replicated;
// immutable references are redirected to the replica immediately (the
// mutator cannot tell originals and replicas of immutable objects apart),
// while mutable references keep pointing at the original — exposing a
// mutable replica before the flip would break the from-space invariant —
// and the slot is queued for re-pointing during the major flip.
//
// hidden says the slot's holder is the major replica of a mutable object
// (hiddenHolder), which nothing the mutator can reach references before the
// flip. Its slots keep the paper's to-space invariant: they point at the
// referent's replica at once — mutable or immutable, filled or in flight —
// and are never queued; the log keeps them current.
func (c *Replicating) toSpaceValue(m *Mutator, v heap.Value, slotObj heap.Value, slot int, hidden bool) (heap.Value, error) {
	if !c.major.active || !c.h.OldFrom().Contains(v) {
		return v, nil
	}
	mutable := c.h.HeaderOf(v).Kind().Mutable()
	// Under §2.5 deferred copying a mutable object is not replicated until the
	// major's completion attempts, so that mutations made to it meanwhile never
	// need reapplying; until then even a hidden slot waits on the worklist,
	// where drainDeferredMajorMutables finds the referent.
	deferred := mutable && c.cfg.DeferMutableCopies
	if hidden && !(deferred && !c.h.IsForwarded(v)) {
		return c.replicate(m, &c.major, v)
	}
	if !mutable {
		replica, err := c.replicate(m, &c.major, v)
		if err != nil || replica != c.major.inflight.replica {
			return replica, err
		}
		// Still being filled, and a to-space slot may be mutator-visible:
		// like a mutable reference, this one waits for the flip.
	}
	f := fixup{obj: slotObj, slot: int32(slot)}
	if _, dup := c.fixupSeen[f]; !dup {
		c.fixupSeen[f] = struct{}{}
		c.fixups = append(c.fixups, f)
	}
	// A mutable referent is copied eagerly unless deferred (the slot still
	// waits for the flip either way).
	if mutable && !deferred {
		if _, err := c.replicate(m, &c.major, v); err != nil {
			return heap.Nil, err
		}
	}
	return v, nil
}

// hiddenHolder reports whether holder, a to-space object that is (replica) or
// is not one of the major's replicas, is hidden from the mutator until the
// flip: the replica of a mutable object, every reference to which stays on the
// original until then. An immutable object's replica is not — a visible slot
// may already have been redirected to it — nor is anything promoted or
// allocated in to-space: a minor replica is visible from the next minor flip.
func (c *Replicating) hiddenHolder(holder heap.Value, replica bool) bool {
	return replica && !c.noHiding && heap.Header(c.h.RawHeader(holder)).Kind().Mutable()
}

// drainDeferredMajorMutables replicates the mutable old-from objects whose
// copies were deferred (their slots are the recorded fixups), queueing the
// replicas for tracing. Budget-gated; reports whether everything pending
// was copied.
func (c *Replicating) drainDeferredMajorMutables(m *Mutator, force bool) (bool, error) {
	h := c.h
	for _, f := range c.fixups {
		v := h.Load(f.obj, int(f.slot))
		if !h.OldFrom().Contains(v) || h.IsForwarded(v) {
			continue
		}
		if c.overBudget(m, force) {
			return false, nil
		}
		if _, err := c.replicate(m, &c.major, v); err != nil {
			return false, err
		}
	}
	return true, nil
}

// scan advances g's Cheney scan within the work budget and reports whether
// the cursor reached the to-space frontier.
//
// The minor scan covers only the objects promoted in the current cycle,
// rewriting their nursery pointers to promoted replicas before the minor
// flip. Old from-space references in fresh promotions are left untouched —
// the mutator is entitled to use from-space originals, and the major scan
// deals with them at its own pace — and mutator-owned objects allocated
// inside the region are stepped over (skips).
//
// The major scan is the classic implicit Cheney scan: the cursor sweeps
// old-to in address order, and because every major replica and every
// promotion is allocated at the old-to frontier — above the cursor —
// reaching the frontier means everything is traced, with no gray worklist
// and no per-object queue allocations. Each object's from-space referents
// are replicated (immutable references rewritten, mutable ones recorded as
// flip fixups); to-space referents need no action (they are scanned by
// address), and nursery referents are the minor machinery's business — the
// minor flip re-points every logged old→nursery slot before a major can
// complete. The trade-off is the textbook one: the sweep also visits
// mutator-owned direct allocations and objects promoted during the major
// that die before the flip (floating garbage costs scan work, and their
// old-from referents are replicated), matching the behaviour of the
// authors' concurrent follow-up collector.
func (c *Replicating) scan(m *Mutator, g *generation, force bool) (bool, error) {
	h, from := c.h, g.from
	for g.scan < g.to.Next {
		if g.scanSlot == 0 && g.skipIdx < len(g.skips) && g.skips[g.skipIdx].start == g.scan {
			g.scan += g.skips[g.skipIdx].words
			g.skipIdx++
			continue
		}
		if c.overBudget(m, force) {
			return false, nil
		}
		if g.inflight.replica == heap.Value((g.scan+1)<<3) {
			// The replica at the cursor is still being filled: its tail is
			// not the object yet, so the scan waits in front of it.
			return false, nil
		}
		w := h.Word(g.scan)
		if !heap.IsHeader(w) {
			//gclint:allow panicpath -- invariant: the scan region holds replicas and mutator-owned to-space objects, neither of which is ever forwarded during its cycle
			panic(fmt.Sprintf("core: %s scan hit forwarded object at %#x", g.name, g.scan))
		}
		hdr := heap.Header(w)
		p := heap.Value((g.scan + 1) << 3)
		if !hdr.Kind().HasPointers() {
			m.Clock.Charge(g.acct, simtime.Duration(hdr.SizeWords())*m.Cost.ScanWord)
			g.scan += uint64(hdr.SizeWords())
			continue
		}
		// Pointer-bearing objects are scanned slot by slot so that even a
		// single large object cannot blow the pause budget (the paper's
		// §3.4 incremental-large-object extension); the slot cursor
		// resumes at the next increment.
		if g.scanSlot == 0 {
			m.Clock.Charge(g.acct, m.Cost.ScanWord) // header word
		}
		for i := g.scanSlot; i < hdr.Len(); {
			// Sweep to j, the next slot holding a from-space pointer.
			var v heap.Value
			j, hit := i, false
			if c.cfg.NaiveReplay {
				// The reference accounting: one budget check and one
				// charge per slot.
				if c.overBudget(m, force) {
					g.scanSlot = i
					return false, nil
				}
				m.Clock.Charge(g.acct, m.Cost.ScanWord)
				v = h.Load(p, i)
				if hit = from.Contains(v); !hit {
					j++
				}
			} else {
				// Batched accounting: runs of uninteresting slots are swept in
				// a tight loop and charged in one go. The batch size is exactly
				// the slot allowance the per-slot budget check would have
				// granted, and any slot that triggers a copy ends its batch (a
				// copy consumes budget too), so the cursor stops on the
				// identical slot — simulated charges and heap contents are
				// bit-equal to the NaiveReplay accounting above.
				n := c.budgetSlots(m, force, m.Cost.ScanWord)
				if n == 0 {
					g.scanSlot = i
					return false, nil
				}
				if rem := hdr.Len() - i; n > rem {
					n = rem
				}
				for ; j < i+n; j++ {
					v = h.Load(p, j)
					if from.Contains(v) {
						hit = true
						break
					}
				}
				scanned := j - i
				if hit {
					scanned++ // the interesting slot is charged too
				}
				m.Clock.Charge(g.acct, simtime.Duration(scanned)*m.Cost.ScanWord)
			}
			if !hit {
				i = j
				continue
			}
			// Forward the pointer. A forwarder that hands v itself back has
			// queued the slot, which keeps its from-space pointer for now.
			var nv heap.Value
			var err error
			if g.major {
				// The kind test first: it fails for most holders and spares
				// them the run-list lookup.
				nv, err = c.toSpaceValue(m, v, p, j, hdr.Kind().Mutable() && c.hiddenHolder(p, g.scanningReplica()))
			} else {
				nv, err = c.minorValue(m, v, p, j)
			}
			if err != nil {
				g.scanSlot = j // resume exactly at the failed slot
				return false, err
			}
			if nv != v {
				h.Store(p, j, nv)
			}
			i = j + 1
		}
		g.scanSlot = 0
		g.scan += uint64(hdr.SizeWords())
	}
	return true, nil
}

// minorFlip atomically redirects the mutator onto the replicas: logged
// old-space slots (the minor roots) are re-pointed via an extra traversal
// of the filtered log (the paper's CF cost), then every mutator root is
// updated, and the nursery is discarded. A typed exhaustion error from a
// straggler copy aborts the flip with the cycle still active: nothing is
// truncated until every fallible step has succeeded, and the already-
// re-pointed slots no longer hold nursery values, so a retried flip skips
// them.
func (c *Replicating) minorFlip(m *Mutator) error {
	h, g := c.h, &c.minor
	g.mustNotBeCopying()

	// Re-point logged old-space locations at promoted replicas.
	for _, seq := range c.minorRootSeqs {
		e := m.Log.At(seq)
		moved, err := c.repoint(m, g, e.Obj, int(e.Slot))
		if err != nil {
			return err
		}
		if moved && c.major.active && h.OldFrom().Contains(e.Obj) {
			// If the holder is an old-from object, the major must also
			// observe the store (reapply to its replica). The promoted
			// referent itself needs no queueing: it lives in old-to, which
			// the major cursor scans by address.
			m.Log.Append(LogEntry{Obj: e.Obj, Slot: e.Slot})
		}
	}
	c.minorRootSeqs = c.minorRootSeqs[:0]

	// Update every mutator root; promoted replicas the roots now reference
	// live in old-to, where an active major's cursor scans them by address.
	c.redirectRoots(m, g)

	// Advance the minor cursor over anything the flip appended for the
	// major collection: those entries are not nursery business.
	g.logCursor = m.Log.Len()

	// Discard the nursery and grant the next cycle's allocation room. The
	// replay memo dies with it: nursery addresses are about to be reused.
	h.Nursery.Reset()
	c.resetReplayMemo()
	promoted := c.stats.BytesCopiedMinor - c.minorStartCopy
	c.promotedSinceMajor += promoted
	if promoted > c.promoHighWater {
		c.promoHighWater = promoted // feeds the headroom reservation
	}
	c.stats.MinorCollections++
	g.active, g.deferrals = false, 0
	// Skip spans expire with the cycle: the minor scan has passed them,
	// and the major traces by reachability rather than by region.
	g.skips, g.skipIdx = g.skips[:0], 0

	c.stats.FlipCopied = append(c.stats.FlipCopied, c.stats.TotalBytesCopied())
	if c.cfg.Record != nil && !c.finishing {
		// MajorFlip is patched by afterMinorFlip if a major completes in
		// this pause.
		c.cfg.Record.Record(policy.Event{AllocMark: m.BytesAllocated})
	}
	c.setNextNurseryLimit(m)
	c.trimLog(m)
	return nil
}

// repoint re-points one slot from a flip worklist at its referent's replica
// and charges the flip for it; a straggler that has no replica yet gets one.
// It reports false, charging nothing, for a slot that no longer holds a
// from-space pointer: overwritten since, so a later entry handled it.
func (c *Replicating) repoint(m *Mutator, g *generation, obj heap.Value, slot int) (bool, error) {
	v := c.h.Load(obj, slot)
	if !g.from.Contains(v) {
		return false, nil
	}
	replica, err := c.replicate(m, g, v)
	if err != nil {
		return false, err
	}
	c.h.Store(obj, slot, replica)
	c.stats.FlipEntryUpdates++
	c.pauses.cur.FlipEntries++
	m.Clock.Charge(simtime.AcctFlip, m.Cost.FlipEntry)
	return true, nil
}

// redirectRoots is the atomic step of a flip: every mutator root still
// pointing into from-space is switched to the replica.
func (c *Replicating) redirectRoots(m *Mutator, g *generation) {
	h := c.h
	roots := m.Roots.Slots()
	for _, slot := range roots {
		if v := *slot; g.from.Contains(v) {
			if !h.IsForwarded(v) {
				//gclint:allow panicpath -- invariant: the completion pass (scanRoots) replicated every from-space root before the flip
				panic(fmt.Sprintf("core: unreplicated root at %s flip", g.name))
			}
			*slot = h.ForwardAddr(v)
		}
	}
	c.stats.RootSlotUpdates += int64(len(roots))
	c.pauses.cur.RootSlots += int64(len(roots))
	m.Clock.Charge(simtime.AcctFlip, simtime.Duration(len(roots))*m.Cost.RootUpdate)
}

// setNextNurseryLimit restores the nursery limit for the next cycle: the
// configured N, or the replayed allocation delta from the script.
func (c *Replicating) setNextNurseryLimit(m *Mutator) {
	limit := c.cfg.NurseryBytes
	if c.replay != nil {
		if ev, ok := c.replay.Next(); ok {
			c.forcedMajorFlip = ev.MajorFlip
			if d, ok := c.replay.NurseryDelta(m.BytesAllocated); ok {
				limit = d
			}
		}
	}
	c.setNurseryLimit(limit)
}

// setNurseryLimit sets the next cycle's allocation room, above a sane floor so
// that a replayed delta, or the A of a deferred flip, is a cycle worth having.
func (c *Replicating) setNurseryLimit(limit int64) {
	const floor = 64 << 10
	c.h.Nursery.SetLimitBytes(max(limit, floor))
}

// trimLog drops log entries no collection still needs.
func (c *Replicating) trimLog(m *Mutator) {
	low := c.minor.logCursor
	if c.major.active && c.major.logCursor < low {
		low = c.major.logCursor
	}
	m.Log.TrimTo(low)
}

// afterMinorFlip runs the major-generation work that the paper schedules
// immediately after each minor termination: activate a major collection
// when the promotion threshold O is crossed, then perform major work within
// the pause's remaining budget (or, if the minor work already exhausted it,
// process the log only). It reports whether a major flip completed.
//
// An emergency pause overrides the threshold: the old generation is the
// only place a degraded collection can reclaim space, so the major runs
// (and completes) regardless of O.
func (c *Replicating) afterMinorFlip(m *Mutator, force bool) (bool, error) {
	if !c.major.active {
		trigger := c.cfg.MajorThresholdBytes > 0 && c.promotedSinceMajor >= c.cfg.MajorThresholdBytes
		if c.replay != nil {
			trigger = c.forcedMajorFlip
		}
		if c.emergency {
			trigger = true
		}
		if !trigger {
			return false, nil
		}
		c.startMajor(m)
	}
	forceMajor := force || c.emergency || !c.cfg.IncrementalMajor || (c.replay != nil && c.forcedMajorFlip)
	c.pauses.cur.Forced = c.pauses.cur.Forced || forceMajor
	// Under interleaved pacing, the post-flip increment is the only moment
	// a major can complete; from here to the end of the pause the budget is
	// the completion budget rather than the micro quantum.
	if raise := c.microRaise(m); raise > 0 {
		c.microLimit = c.cfg.CopyLimitBytes / 2
		c.extend(raise)
	}
	flipped, err := c.runMajorIncrement(m, forceMajor, true)
	if err != nil {
		return false, err
	}
	if flipped {
		c.forcedMajorFlip = false
		if c.cfg.Record != nil && !c.finishing && c.cfg.Record.Len() > 0 {
			c.cfg.Record.Events[c.cfg.Record.Len()-1].MajorFlip = true
		}
	}
	return flipped, nil
}

// startMajor begins a major collection cycle. It must be called right after
// a minor flip, when the nursery is empty and no old→nursery pointers
// exist. From this moment promotions land in old-to (allocated black for
// the minor generation) and the major cursor sweeps old-to behind them;
// old-to is empty here (the previous major flip reset it), so the cursor
// starts at the bottom of the space.
func (c *Replicating) startMajor(m *Mutator) {
	c.major.logCursor = m.Log.Len()
	c.major.begin(c.h.OldFrom(), c.h.OldTo())
	c.major.replicas, c.major.replicaIdx = c.major.replicas[:0], 0
	c.fixupSeen = make(map[fixup]struct{})
}

// runMajorIncrement performs one increment of the major collection and
// reports whether it completed (including its flip). Nothing runs once the
// pause budget is spent (paper §3.3). postFlip marks increments running right
// after a minor flip, when no old→nursery pointers exist; increments
// interleaved mid-cycle (concurrent-style pacing, §6) pass false, and a logged
// slot whose current value still points into the nursery blocks the log queue
// until the next minor flip re-points it. Completion is only possible post-flip.
func (c *Replicating) runMajorIncrement(m *Mutator, force, postFlip bool) (bool, error) {
	g := &c.major
	g.whole = force
	if !c.resumeCopy(m, g) {
		return false, nil
	}

	// 1. Drain the major log: reapply mutations to existing replicas of
	// old-from objects, and track from-space references stored into
	// mutator-visible to-space objects.
	endPhase := c.pauses.Phase(m, simtime.PhaseLogReplay)
	done, err := c.processMajorLog(m, force, postFlip)
	endPhase()
	if !done {
		return false, err
	}

	if c.overBudget(m, force) {
		return false, nil
	}

	// 2. Advance the implicit Cheney scan toward the old-to frontier.
	if done, err := c.scanPhase(m, g, force); !done {
		return false, err
	}

	// 3. Scan and log are drained: attempt completion. Scan the mutator
	// roots (the nursery is empty right after a minor flip, so roots
	// reference only the old generation or immediates); from-space
	// referents are replicated — the roots themselves are only redirected
	// at the flip — and to-space referents need no action, since the
	// cursor sweeps them by address. As with the minor collection, roots
	// are scanned once per completion attempt rather than once per
	// increment.
	if !postFlip {
		return false, nil
	}
	// Forced increments — forced completions, emergencies, low headroom, a
	// replayed script's flips and the non-incremental major — complete
	// regardless of the gate; a budgeted attempt must fit its pause.
	roots := m.Roots.Slots()
	if c.deferAttempt(m, g, &force, 2*len(roots), len(c.fixups)) {
		return false, nil
	}
	if done, err := c.scanRoots(m, g, roots, force); !done {
		return false, err
	}
	// Root replication pushed fresh copies above the cursor; finish the
	// sweep.
	if done, err := c.scanPhase(m, g, force); !done {
		return false, err
	}

	// Deferred mutable copies (§2.5) happen now: copy, trace their
	// contents, and repeat until no pending copies remain — each round can
	// expose further deferred references.
	if c.cfg.DeferMutableCopies {
		endPhase = c.pauses.Phase(m, simtime.PhaseCopy)
		for {
			if done, err := c.drainDeferredMajorMutables(m, force); !done {
				endPhase()
				return false, err
			}
			if g.scanDone() {
				break
			}
			if done, err := c.scan(m, g, force); !done {
				endPhase()
				return false, err
			}
		}
		endPhase()
	}

	if g.logCursor != m.Log.Len() || !g.scanDone() {
		return false, nil
	}
	// The worklist has grown with what the attempt copied, and the time has gone.
	if c.deferAttempt(m, g, &force, len(roots), len(c.fixups)) {
		return false, nil
	}
	g.whole = true // a straggler the flip copies, it copies whole
	endPhase = c.pauses.Phase(m, simtime.PhaseFlip)
	err = c.majorFlip(m)
	endPhase()
	if err != nil {
		return false, err
	}
	return true, nil
}

// maxFlipDeferrals is how many times in a row a completion attempt may be put
// off before it runs regardless, which is what ends a cycle whose every pause is
// full. Measured with no cap on the repository benchmark's five workloads,
// four seeds each (EXPERIMENTS.md, "PR 22"): a deferred major flip fits the very
// next minor flip's pause everywhere but on primes, whose lazy stream has phases
// in which a whole short nursery survives — there 13-25 of 213 majors wait two
// to four cycles, never more. 8 is twice the longest wait measured.
const maxFlipDeferrals = 8

// deferAttempt is the admission gate of a budgeted increment's completion
// attempt — the pass over the roots, whatever copying it sets off, and the
// flip: it reports whether the attempt, which could go on now, waits for a later
// pause instead. What is left of the attempt cannot stop part-way, and its cost
// is known before it runs — rootVisits root slots at RootUpdate each, over all
// its passes, the flip's worklist at FlipEntry a slot — so it goes on only if the pause's
// time so far plus that cost is within the pause's budget. Asked before the
// root pass, a refusal costs the pause nothing; asked again before the flip, it
// holds the flip to what the attempt's own copying has left.
//
// A refused minor attempt leaves the collection awaiting completion, and the
// pause grants the paper's A; a refused major attempt shortens the next nursery
// cycle to A, so that the pause it is tried in next holds one small minor
// collection and little else. An attempt whose cost alone is over the budget,
// or that has been put off maxFlipDeferrals times in a row, runs to completion
// unbudgeted (*force is set), counted and marked on its pause (Pause.Overrun):
// the one exemption from the pause bound. Its cost stays outside the budget
// of the rest of the pause, or a root set too long for the budget would leave
// the other generation nothing, pause after pause.
func (c *Replicating) deferAttempt(m *Mutator, g *generation, force *bool, rootVisits, worklist int) bool {
	if *force || c.deadline <= 0 || c.noGate {
		return false
	}
	cost := simtime.Duration(worklist)*m.Cost.FlipEntry + simtime.Duration(rootVisits)*m.Cost.RootUpdate
	raise := c.microRaise(m)
	if m.Clock.Now()+cost <= c.deadline+raise {
		return false
	}
	if cost > c.budget(m)+raise || g.deferrals >= maxFlipDeferrals {
		c.stats.Overruns++
		c.pauses.cur.Overrun += cost
		c.extend(cost)
		*force, g.whole = true, true
		return false
	}
	g.deferrals++
	c.stats.Deferrals++
	c.pauses.cur.Deferred = true
	if g.major {
		c.setNurseryLimit(c.expandBytes())
	}
	return true
}

// microRaise is what the completion budget of interleaved pacing adds to a
// micro-pause's: completion attempts are the one place that design stops the
// mutator for real work, so they are admitted against — and the increment
// after a minor flip runs under — a quarter of the standard per-pause budget
// rather than the micro quantum, still well under the pause target.
func (c *Replicating) microRaise(m *Mutator) simtime.Duration {
	if micro := c.microLimit; micro > 0 && micro < c.cfg.CopyLimitBytes/2 {
		return workTime(m.Cost, c.cfg.CopyLimitBytes/2) - workTime(m.Cost, micro)
	}
	return 0
}

// processMajorLog consumes pending log entries for the major collection;
// it reports whether log processing has gone as far as it can this
// increment (a mid-cycle entry whose slot still holds a nursery pointer
// parks the queue until the next minor flip, which counts as done). A
// typed exhaustion error rewinds the cursor to the failed entry, like the
// mid-cycle retry.
func (c *Replicating) processMajorLog(m *Mutator, force, postFlip bool) (bool, error) {
	h, g := c.h, &c.major
logLoop:
	for g.logCursor < m.Log.Len() {
		_, e, ok := c.takeLogEntry(m, g, force)
		if !ok {
			return false, nil
		}
		switch {
		case h.OldFrom().Contains(e.Obj):
			replica, fwd := c.forwardingOf(e.Obj)
			if !fwd {
				continue // unreplicated: the copy will carry current contents
			}
			if !e.Byte {
				v := h.Load(e.Obj, int(e.Slot))
				if h.Nursery.Contains(v) {
					if postFlip {
						//gclint:allow panicpath -- invariant: the minor flip re-points every logged old→nursery slot
						panic("core: old object holds nursery pointer after a minor flip")
					}
					// Mid-cycle: the slot will be re-pointed by the next
					// minor flip; retry this entry then.
					c.rewindLogEntry(g, nil)
					break logLoop
				}
			}
			c.stats.LogReapplied++
			m.Clock.Charge(simtime.AcctLogReapply, m.Cost.LogReapply)
			if e.Byte {
				c.reapplyBytes(replica, e)
				continue
			}
			v := h.Load(e.Obj, int(e.Slot))
			nv, err := c.toSpaceValue(m, v, replica, int(e.Slot), c.hiddenHolder(replica, true))
			if err != nil {
				return c.rewindLogEntry(g, err)
			}
			h.Store(replica, int(e.Slot), nv)

		case h.OldTo().Contains(e.Obj):
			// A mutator-visible to-space object received a store. The
			// object itself is swept by the major cursor regardless, but
			// if the cursor has already passed it a stored from-space
			// value would go unseen — so the direct-store handler deals
			// with it here, per the mutability rule. To-space values need
			// nothing: their referents are scanned by address.
			if e.Byte {
				continue
			}
			v := h.Load(e.Obj, int(e.Slot))
			if h.OldFrom().Contains(v) {
				nv, err := c.toSpaceValue(m, v, e.Obj, int(e.Slot), false)
				if err != nil {
					return c.rewindLogEntry(g, err)
				}
				if nv != v {
					h.Store(e.Obj, int(e.Slot), nv)
				}
			}
		}
	}
	return true, nil
}

// majorFlip atomically redirects everything that still references the old
// from-space — queued mutable-reference fixups and the mutator roots — then
// swaps the semispaces and discards the from-space. Like minorFlip it is
// abortable: a straggler copy that overflows to-space surfaces a typed
// error before anything is truncated, and the already-re-pointed fixups no
// longer hold from-space values, so a retried flip skips them.
func (c *Replicating) majorFlip(m *Mutator) error {
	h, g := c.h, &c.major
	g.mustNotBeCopying()
	if h.Nursery.UsedWords() != 0 {
		//gclint:allow panicpath -- invariant: majors only flip right after a minor flip emptied the nursery
		panic("core: major flip with non-empty nursery")
	}

	// Re-point recorded to-space slots that still hold mutable from-space
	// references.
	c.stats.LargestFlipWorklist = max(c.stats.LargestFlipWorklist, len(c.fixups))
	for _, f := range c.fixups {
		if _, err := c.repoint(m, g, f.obj, int(f.slot)); err != nil {
			return err
		}
	}
	c.fixups = c.fixups[:0]
	c.fixupSeen = nil
	g.deferrals = 0

	c.redirectRoots(m, g)

	h.SwapOld()
	c.resetReplayMemo() // old-from forwarding words just vanished
	g.active = false
	c.promotedSinceMajor = 0
	c.stats.MajorCollections++

	// Both cursors are at the log's end; everything can go.
	g.logCursor = m.Log.Len()
	c.minor.logCursor = m.Log.Len()
	m.Log.TrimTo(m.Log.Len())
	return nil
}
