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

// fixup names a slot that holds a pointer into a generation's from-space and
// must be re-pointed at its referent's replica by that generation's flip. The
// minor's are the logged old→nursery slots, the paper's minor roots. The
// major's are mutator-visible to-space slots holding a from-space pointer to a
// MUTABLE object (or to an immutable one still being filled, or whose
// replica's closure is not yet walked): slots holding immutable from-space
// pointers are rewritten eagerly (the mutator cannot observe the difference
// between an immutable original and its replica), but exposing a mutable
// replica before the flip would let the mutator read or write it while the
// collector is still reapplying the original's mutation log — so mutable
// references stay aimed at the from-space original until the atomic flip.
// pendingMut reuses the type for the minor's deferred mutable copies.
type fixup struct {
	obj  heap.Value // the holder: an old object, whose address holds until the flip
	slot int32
}

// generation is one generation under collection as the replication engine
// sees it: where its originals live, where their replicas go, how far the
// log cursor and the Cheney scan have got, and what the work is charged to.
// The paper runs one algorithm on both generations, so the collector holds
// two — minor (nursery → promotion space) and major (old from-space → old
// to-space) — and that algorithm's kernels (replicate, scan, scanRoots,
// takeLogEntry, attempt, flip) are written once over a *generation. Each
// generation's log-entry handler, the way it fills its flip worklist, its
// increment and the step that ends its cycle after the flip stay its own. A
// generation carries no budget: the pause's one deadline says whether a kernel
// goes on and whether a copy splits (Replicating.deadline).
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

	active    bool
	logCursor int64 // next log entry for this generation's collection

	// Cheney state; scan describes the region each generation's cursor
	// sweeps.

	scan      uint64 // header word of the next to-space object to scan
	scanSlot  int    // resume slot within the object at the cursor
	scanStart uint64 // where the cycle's scan began (audit: the scanned region)
	skips     []span // mutator-owned objects inside the scan region (minor only: NoteOldAlloc)
	skipIdx   int
	// The runs of consecutive replicas in to, in address order (major only):
	// what tells a replica from an object promoted or allocated there, which
	// is mutator-visible (hiddenHolder).
	replicas   []span
	replicaIdx int
	// The exposure walk's stack (major only). A replica a visible slot may be
	// redirected to is exposed, and carries the heap's to-space mark (expose);
	// every other replica is hidden until the flip (hiddenHolder). The stack
	// holds exposed replicas whose slots the cursor scanned while they were
	// hidden, each with the next slot to visit. While it holds anything no
	// visible slot is redirected to a replica.
	walk []walkJob

	// The one replica this generation is filling across pauses (replicate);
	// its replica field is Nil when no copy is in flight.
	inflight  copyJob
	deferrals int // times in a row this generation's completion attempt has been put off (deferAttempt)

	// The flip's worklist: the slots flip re-points before the roots. The
	// minor appends every logged old→nursery slot, a slot logged twice
	// twice; the major queues each slot once (queueFixup), so that its
	// length, the flip's cost the admission gate reads, counts each slot once.
	worklist []fixup
	seen     wordSet // the arena words of the slots queued
}

// copyJob is a replica being filled: the payload words below next are copied.
type copyJob struct {
	orig, replica heap.Value
	next, words   int
}

// walkJob is an exposed replica on the walk's stack: its slots from next up to
// end were scanned while it was hidden and are visited by walkExposed.
type walkJob struct {
	orig, replica heap.Value
	next, end     int
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
	// collection state below change only inside a pause.
	minor, major generation

	// Minor collection state.

	pendingMut     []fixup // replica slots holding deferred mutable nursery refs (§2.5)
	minorPauses    int     // pauses spanned by the active minor collection
	minorStartCopy int64   // BytesCopiedMinor at cycle start
	lazyMinorSeqs  []int64 // deferred reapply queue under LazyLogProcessing

	// Major collection state.

	promotedSinceMajor int64
	forcedMajorFlip    bool // replay wants a major flip at the next minor flip

	replay    *policy.Cursor
	finishing bool // inside FinishCycles: flips are not recorded

	// Degradation-ladder state. promoHighWater is the largest volume one
	// minor cycle has ever promoted; the headroom reservation (DESIGN.md,
	// "Failure model") keeps that many bytes plus the current nursery
	// contents free in the promotion target, forcing completion (and an
	// early major) before a mid-copy overflow can happen.
	promoHighWater int64

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
	// spent its budget; 0 when it has none. It is the pause's one budget:
	// every budget test reads it (overBudget, budgetSlots, deferAttempt), and
	// work with no budget runs with it lifted (lift, restore).
	deadline simtime.Duration

	// ckpt, when set, is called at the tail of every pause, still inside the
	// pause window, under the guarantee collection work has.
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

// AfterAlloc implements Collector. Nothing calls it: flip points are steered
// by nursery limits.
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
// it is a counted overrun.
func (c Config) CheckPauseBound(cost simtime.CostModel, pauses []simtime.Pause) (string, error) {
	bound, copyBound := c.PauseBoundTime(cost), c.PauseCopyBound()
	longest, most, budgeted, text := simtime.Duration(0), int64(0), 0, ""
	for i, p := range pauses {
		if p.Cause.Forced() { // no budget to hold it to
			continue
		}
		budgeted++
		if p.CopiedB > copyBound {
			return text, fmt.Errorf("pause %d copied %d B, over the bound 2L + L/4 = %d B", i, p.CopiedB, copyBound)
		}
		most = max(most, p.CopiedB)
		switch {
		case p.Unbudgeted(): // a counted overrun
			text += fmt.Sprintf("overrun: pause %d is %v long, %v of it a completion attempt let through over budget (%d root slots and %d worklist slots flipped)\n",
				i, p.Length, p.Overrun, p.RootSlots, p.FlipEntries)
		case p.Length > bound:
			return text, fmt.Errorf("pause %d is %v long (%d B copied, %d log entries, %d root slots and %d worklist slots flipped), over the bound %v",
				i, p.Length, p.CopiedB, p.LogProcN, p.RootSlots, p.FlipEntries, bound)
		default:
			longest = max(longest, p.Length)
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

// CollectForAlloc implements Collector: one garbage-collection pause.
func (c *Replicating) CollectForAlloc(m *Mutator, needWords int) error {
	return c.pause(m, needWords, simtime.EntryAlloc)
}

// FinishCycles implements Collector: drive all pending incremental work to
// completion so total copy volumes are comparable across configurations.
func (c *Replicating) FinishCycles(m *Mutator) error {
	// Run ordinary budgeted pauses so the tail of the run has the same
	// bounded-pause behaviour as the rest; fall back to an emergency
	// collection only if the collection fails to converge. Flips forced here
	// are an end-of-run artifact and are not recorded into policy scripts.
	c.finishing = true
	defer func() { c.finishing = false }()
	for i := 0; c.minor.active || c.major.active; i++ {
		if i > 1<<16 { // an emergency completes both generations
			return c.CollectEmergency(m)
		}
		if err := c.pause(m, 0, simtime.EntryFinish); err != nil {
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
	return c.pause(m, 0, simtime.EntryEmergency)
}

// pause stops the mutator and performs one increment of collection work for
// entry, the way into it. An emergency pause has no budget and completes
// everything. The pause is always charged and recorded — including when it
// ends in a typed exhaustion error, so degraded runs report honest long pauses.
func (c *Replicating) pause(m *Mutator, needWords int, entry simtime.Cause) error {
	c.pauses.Begin(m, entry)
	// Every pause starts a fresh log-coalescing epoch before any cursor
	// moves: dirty bits set by the barrier since the previous pause vouch for
	// entries this pause may now consume, so they must expire here
	// (heap/stamp.go spells out the invariant).
	c.h.BeginLogEpoch()
	c.deadline = 0
	if budget := c.budget(m); budget > 0 {
		c.deadline = c.pauses.cur.At + budget
	}
	majors := c.stats.MajorCollections
	err := c.pauseBody(m, needWords)
	if c.ckpt != nil {
		p := c.CheckpointNow()
		p.BudgetWords = c.budgetSlots(m, m.Cost.CopyWord)
		c.pauses.checkpoint(m, func() {
			if c.ckpt.PauseCheckpoint(m, p) {
				c.pauses.cur.Cause |= simtime.Commit
			}
		})
	}
	c.pauses.cur.LogLeft = m.Log.Len() - c.minor.logCursor
	if c.major.active {
		c.pauses.cur.LogLeft += m.Log.Len() - c.major.logCursor
	}
	// A major pause is one in which a non-incremental major flipped.
	kind := simtime.PauseMinor
	if c.stats.MajorCollections > majors && !c.cfg.IncrementalMajor {
		kind = simtime.PauseMajor
	}
	c.pauses.End(m, kind)
	return err
}

// pauseBody is the work of one pause; pause wraps it so the clock and the
// recorder see every pause, successful or not. Each stretch of it without a
// budget leaves its bit in the pause's cause (lift).
func (c *Replicating) pauseBody(m *Mutator, needWords int) error {
	// Degradation ladder, headroom reservation: if the promotion target
	// cannot absorb a worst-case cycle (everything currently in the
	// nursery plus the recorded high-water mark as reserve), finish all
	// incremental work now, in one long pause, rather than risk an
	// unrecoverable overflow in the middle of a later copy. Escalated here, or
	// entered as one (CollectEmergency), the pause has no budget from here to
	// its end (the lift is never restored).
	if c.pauses.cur.Cause == simtime.EntryEmergency {
		c.lift(simtime.LiftEmergency)
	} else if c.lowHeadroom() {
		c.stats.EmergencyCollections++
		c.stats.ForcedCompletion++
		c.lift(simtime.LiftEmergency)
	}

	if !c.minor.active {
		c.startMinor(m)
	}
	c.minorPauses++
	capped := c.minorPauses > cmp.Or(c.pauseCap, maxMinorPauses)
	forceMinor := c.pauses.cur.Cause.Emergency() || !c.cfg.IncrementalMinor || capped
	if capped {
		c.stats.ForcedCompletion++
	}

	// A forced increment runs with the deadline lifted, and its time goes back
	// onto it: else a root set too long for the budget would leave the major
	// after it nothing, pause after pause.
	needB, from, deadline := int64(needWords)*heap.BytesPerWord, m.Clock.Now(), simtime.Duration(0)
	if forceMinor {
		deadline = c.lift(simtime.LiftMinor)
	}
	done, err := c.minorIncrement(m)
	c.restore(deadline, m.Clock.Now()-from)
	if err != nil {
		return err
	}
	if done {
		if err := c.afterMinorFlip(m); err != nil {
			return err
		}
	} else if needWords > 0 || c.h.Nursery.FreeWords() == 0 {
		// Await completion: grant the mutator room to keep allocating
		// (paper parameter A), enough for the pending allocation. Pauses
		// that were not forced by a failed allocation (FinishCycles') skip
		// the expansion while the nursery still has room.
		granted := c.h.Nursery.GrowBytes(max(c.expandBytes(), needB))
		c.stats.NurseryExpansion += granted
		if granted < needB {
			// Expansion bound blown: conservative completion (the
			// ladder's first rung).
			c.stats.ForcedCompletion++
			from, deadline := m.Clock.Now(), c.lift(simtime.LiftMinor)
			done, err := c.minorIncrement(m)
			c.restore(deadline, m.Clock.Now()-from)
			if err != nil {
				return err
			}
			if !done {
				//gclint:allow panicpath -- invariant: an increment with no budget has none to run out of
				panic("core: forced minor completion did not complete")
			}
			if err := c.afterMinorFlip(m); err != nil {
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

// lift begins a stretch of the pause that has no budget, at the site whose bit
// it records in the pause's cause: until restore, no budget test stops anything
// and no copy is split. It returns the deadline it took away, 0 when there was
// none (no budget, or a stretch inside another).
func (c *Replicating) lift(site simtime.Cause) simtime.Duration {
	c.pauses.cur.Cause |= site
	d := c.deadline
	c.deadline = 0
	return d
}

// restore ends a stretch on every exit path: the deadline lift returned comes
// back pushed out by by, time the budget does not count.
func (c *Replicating) restore(deadline, by simtime.Duration) {
	if deadline > 0 {
		c.deadline = deadline + by
	}
}

// overBudget reports whether the current pause has used its allowance. It is
// the one budget test: copying, scanning, log replay and the root passes all
// stop at it, and what cannot stop part-way is admitted against the same
// instant before it starts (deferAttempt).
func (c *Replicating) overBudget(m *Mutator) bool {
	return c.deadline > 0 && m.Clock.Now() >= c.deadline
}

// budgetSlots reports how many units of work at each duration the current
// pause may still begin before overBudget would stop it: exactly
// ceil(remaining/each), so a run of this many charges stops where a
// check-every-unit loop would stop. A non-positive return means the budget
// is already spent; unlimited budgets report maxInt.
func (c *Replicating) budgetSlots(m *Mutator, each simtime.Duration) int {
	if c.deadline <= 0 || each <= 0 {
		return int(^uint(0) >> 1)
	}
	rem := c.deadline - m.Clock.Now()
	if rem <= 0 {
		return 0
	}
	return int((rem + each - 1) / each)
}

// minorIncrement performs one increment of the minor collection and reports
// whether the collection completed (including its flip). A typed exhaustion
// error leaves the cycle active and resumable: every cursor stops exactly at
// the failed unit of work.
func (c *Replicating) minorIncrement(m *Mutator) (bool, error) {
	g := &c.minor
	if !c.resumeCopy(m, g) {
		return false, nil
	}

	// 1. Process the mutation log: discover minor roots (old-space slots
	// holding nursery pointers) and keep replicas up to date. The paper's
	// log processing ignores L (§3.4); this one stops when the pause's
	// budget is spent and resumes from the same cursor at the next pause.
	done, err := c.processMinorLog(m)
	if !done {
		return false, err
	}

	// 2. Cheney scan of the objects promoted this cycle.
	if done, err := c.scan(m, g); !done {
		return false, err
	}

	return c.attempt(m, g)
}

// attempt is a collection's completion attempt, made once its log is drained
// and its scan has caught up. Only now are the mutator roots scanned —
// intermediate increments make their progress through the log and the Cheney
// scan, so the (per-pause-constant) root-scan cost is paid once per collection
// rather than once per increment — and only by an attempt the gate admits: the
// pass over the roots, the flip's second one and its worklist must fit what is
// left of the pause. Root referents are replicated within the budget (the
// roots themselves are only redirected at the flip); an aborted pass is
// retried by a later increment.
func (c *Replicating) attempt(m *Mutator, g *generation) (bool, error) {
	roots := m.Roots.Slots()
	over, wait := c.deferAttempt(m, g, 2*len(roots))
	if wait {
		return false, nil
	}
	defer c.restore(over, 0)
	if done, err := c.scanRoots(m, g, roots); !done {
		return false, err
	}
	// The roots may have enqueued fresh copies; finish scanning them.
	if done, err := c.scan(m, g); !done {
		return false, err
	}
	if g.major {
		if done, err := c.drainDeferredMajor(m, g); !done {
			return false, err
		}
	}
	// What those copies took the flip may no longer have.
	if over, wait = c.deferAttempt(m, g, len(roots)); wait {
		return false, nil
	}
	defer c.restore(over, 0)

	// From here to the flip nothing is budgeted and no copy is in flight (the
	// scan is at the frontier): the steps that end in the flip run with the
	// deadline lifted, so what they copy — a straggler the flip itself copies
	// included — they copy whole.
	defer c.restore(c.lift(simtime.LiftFlip), 0)
	if !g.major {
		if done, err := c.completeMinor(m, g); !done {
			return false, err
		}
	}
	err := c.flip(m, g)
	return err == nil, err
}

// completeMinor is the steps that end in the minor flip; it reports whether
// the flip may follow.
func (c *Replicating) completeMinor(m *Mutator, g *generation) (bool, error) {
	// Lazy mode deferred its reapplies to this moment.
	if c.cfg.LazyLogProcessing {
		if err := c.drainLazyMinor(m); err != nil {
			return false, err
		}
		// Reapplication may have replicated new objects; finish scanning.
		if done, err := c.scan(m, g); !done {
			if err != nil {
				return false, err
			}
			//gclint:allow panicpath -- invariant: a scan with the deadline lifted has no budget to run out of
			panic("core: lazy completion scan did not finish")
		}
	}
	// Deferred mutable copies happen now, when their contents are final;
	// each round of copies can expose more deferred references, so loop
	// to a fixpoint.
	for len(c.pendingMut) > 0 {
		err := c.drainPendingMutables(m)
		var done bool
		if err == nil {
			done, err = c.scan(m, g)
		}
		if err != nil {
			return false, err
		}
		if !done {
			//gclint:allow panicpath -- invariant: a scan with the deadline lifted has no budget to run out of
			panic("core: pending-mutable completion scan did not finish")
		}
	}
	return g.logCursor == m.Log.Len(), nil
}

// scanRoots is a collection's completion pass over the mutator roots: every
// root referent still in from-space is replicated, within the budget. The
// roots themselves are only redirected at the flip. It reports whether the
// pass reached the last root; an aborted pass is simply run again.
func (c *Replicating) scanRoots(m *Mutator, g *generation, roots []*heap.Value) (bool, error) {
	// roots is Roots.Slots' reusable buffer, enumerated by the caller for the
	// admission gate: no per-scan closure allocations, and the loop can stop
	// the moment the budget runs out. Every slot is still charged (the root
	// scan visits them all).
	c.stats.RootSlotUpdates += int64(len(roots))
	c.pauses.Charge(m, simtime.AcctRootScan, simtime.Duration(len(roots))*m.Cost.RootUpdate)
	for _, slot := range roots {
		if v := *slot; g.from.Contains(v) {
			if _, err := c.replicate(m, g, v); err != nil || c.overBudget(m) {
				return false, err
			}
		}
	}
	return true, nil
}

// takeLogEntry consumes and charges the entry at g's log cursor; it reports
// false, taking nothing, once the pause's budget is spent: the next increment
// resumes from the same cursor.
func (c *Replicating) takeLogEntry(m *Mutator, g *generation) (int64, LogEntry, bool) {
	if !c.noLogMeter && c.overBudget(m) {
		return 0, LogEntry{}, false
	}
	seq := g.logCursor
	g.logCursor++
	c.stats.LogScanned++
	c.pauses.Charge(m, simtime.AcctLogScan, m.Cost.LogScan)
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
func (c *Replicating) processMinorLog(m *Mutator) (bool, error) {
	h, g := c.h, &c.minor
	for g.logCursor < m.Log.Len() {
		seq, e, ok := c.takeLogEntry(m, g)
		if !ok {
			return false, nil
		}
		switch {
		case h.Nursery.Contains(e.Obj):
			if c.cfg.LazyLogProcessing {
				c.lazyMinorSeqs = append(c.lazyMinorSeqs, seq)
				continue
			}
			if !h.IsForwarded(e.Obj) {
				continue // not yet replicated; the copy will carry current contents
			}
			// Not hidden: a minor replica is mutator-visible from this
			// cycle's flip on.
			if err := c.reapply(m, e, h.ForwardAddr(e.Obj), false); err != nil {
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
				g.worklist = append(g.worklist, fixup{obj: e.Obj, slot: e.Slot})
			}
		}
	}
	return true, nil
}

// reapply brings replica, the replica of e.Obj, up to date with one logged
// mutation, for either generation: a byte range is copied byte by byte; a
// slot's current value is converted for the replica (minorValue for a nursery
// referent, toSpaceValue otherwise, hidden when the replica is a mutable major
// replica the mutator cannot reach before the flip) and stored.
func (c *Replicating) reapply(m *Mutator, e LogEntry, replica heap.Value, hidden bool) error {
	h := c.h
	c.stats.LogReapplied++
	c.pauses.Charge(m, simtime.AcctLogReapply, m.Cost.LogReapply)
	if e.Byte {
		for i := e.Slot; i < e.Slot+e.Len; i++ {
			h.StoreByte(replica, int(i), h.LoadByte(e.Obj, int(i)))
		}
		return nil
	}
	var err error
	v := h.Load(e.Obj, int(e.Slot))
	if h.Nursery.Contains(v) {
		v, err = c.minorValue(m, v, replica, int(e.Slot))
	} else {
		v, err = c.toSpaceValue(m, v, replica, int(e.Slot), hidden)
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
		e := m.Log.At(seq)
		if !c.h.IsForwarded(e.Obj) {
			continue
		}
		if err := c.reapply(m, e, c.h.ForwardAddr(e.Obj), false); err != nil {
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
		return heap.Nil, SpaceOOM(g.oom, c.Name(), g.to, hdr, c.pauses.cur.Cause.Emergency())
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
// does. Nothing splits while the deadline is lifted (lift), nor does a second
// large object met while the one in-flight record is taken, which only a fill
// capped below the budget (chunkWords) leaves room for.
func (c *Replicating) fill(m *Mutator, g *generation, job *copyJob, extra int) {
	n := job.words - job.next
	// The size test comes first: it fails for all but a handful of objects.
	if size := int64(n+extra) * heap.BytesPerWord; size > c.splitBytes() &&
		(job == &g.inflight || g.inflight.replica == heap.Nil) {
		if fits := c.budgetSlots(m, m.Cost.CopyWord); n+extra > fits {
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
	c.pauses.Charge(m, g.acct, simtime.Duration(n+extra)*m.Cost.CopyWord)
}

// resumeCopy continues g's in-flight copy, the first work of every increment,
// and reports whether none is left: an increment that could not finish it has
// spent its budget and does nothing else.
func (c *Replicating) resumeCopy(m *Mutator, g *generation) bool {
	if g.inflight.replica == heap.Nil {
		return true
	}
	c.fill(m, g, &g.inflight, 0)
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
// hidden says the slot's holder is a major replica no visible slot has been
// redirected to (hiddenHolder), which nothing the mutator can reach references
// before the flip. Its slots keep the paper's to-space invariant: they point at
// the referent's replica at once — mutable or immutable, filled or in flight —
// and are never queued; the log keeps them current. A visible slot is
// redirected to an immutable replica only once expose has made the replica's
// closure fit for the mutator; until then it waits on the worklist too.
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
		if err != nil {
			return replica, err
		}
		// A replica still being filled is not the object yet, and one whose
		// closure expose has not walked may lead to a mutable replica: either
		// way, like a mutable reference, the slot waits for the flip.
		if replica != c.major.inflight.replica && c.expose(m, replica, v) {
			return replica, nil
		}
	}
	c.queueFixup(fixup{obj: slotObj, slot: int32(slot)})
	// A mutable referent is copied eagerly unless deferred (the slot still
	// waits for the flip either way).
	if mutable && !deferred {
		if _, err := c.replicate(m, &c.major, v); err != nil {
			return heap.Nil, err
		}
	}
	return v, nil
}

// expose readies replica, the major replica of the immutable original orig,
// for a visible slot, and reports whether the slot may point at it now. A
// replica starts hidden, its scanned slots aimed at replicas of any kind;
// exposed, it must lead the mutator only to exposed replicas, visible objects
// and originals. So expose marks it, and its slots the cursor has not reached
// yet are scanned under the visible rule. Those the cursor scanned while it
// was hidden go on the walk's stack, and walkExposed visits them, a slot at a
// time: a mutable or in-flight replica gives way to its original, read from
// orig's slot, and the slot is queued for the flip, and an immutable replica is
// exposed in turn. The walk is metered like the scan; until its stack is
// empty, the visible slot keeps its original and is queued.
func (c *Replicating) expose(m *Mutator, replica, orig heap.Value) bool {
	if c.noHiding {
		return true
	}
	c.markExposed(replica, orig)
	return c.walkExposed(m)
}

// markExposed marks replica exposed, if it is not, and pushes the
// part of replica the cursor has scanned onto the walk's stack.
func (c *Replicating) markExposed(replica, orig heap.Value) {
	g := &c.major
	if !c.h.Mark(replica) {
		return
	}
	idx := uint64(replica)>>3 - 1 // header word index
	end := 0
	switch hdr := heap.Header(c.h.RawHeader(replica)); {
	case !hdr.Kind().HasPointers():
	case idx < g.scan:
		end = hdr.Len()
	case idx == g.scan:
		end = g.scanSlot
	}
	if end > 0 {
		g.walk = append(g.walk, walkJob{orig: orig, replica: replica, end: end})
	}
}

// walkExposed visits the slots on the walk's stack, charged as the scan's
// are, until the stack is empty or the pause's budget is spent; it reports
// whether the stack is empty. What it leaves waits for the next exposure, or
// for the flip, which hands the mutator every replica anyway.
func (c *Replicating) walkExposed(m *Mutator) bool {
	h, g := c.h, &c.major
	for n := len(g.walk); n > 0; n = len(g.walk) {
		// The job leaves the stack while its slots push the replicas they
		// expose: a chain is walked in constant stack, whichever slot links it.
		j := g.walk[n-1]
		g.walk = g.walk[:n-1]
		for ; j.next < j.end; j.next++ {
			if c.overBudget(m) {
				g.walk = append(g.walk, j)
				return false
			}
			c.pauses.Charge(m, g.acct, m.Cost.ScanWord)
			v := h.Load(j.replica, j.next)
			if !g.to.Contains(v) || !g.isReplica(v) {
				continue // an original, or a visible to-space object
			}
			if v == g.inflight.replica || heap.Header(h.RawHeader(v)).Kind().Mutable() {
				h.Store(j.replica, j.next, h.Load(j.orig, j.next))
				c.queueFixup(fixup{obj: j.replica, slot: int32(j.next)})
				continue
			}
			c.markExposed(v, h.Load(j.orig, j.next))
		}
	}
	return true
}

// queueFixup puts f on the major flip's worklist unless it is there already.
func (c *Replicating) queueFixup(f fixup) {
	if g := &c.major; g.seen.add(uint64(f.obj)>>3 + uint64(f.slot)) {
		g.worklist = append(g.worklist, f)
	}
}

// wordSet is a set of arena word indices, the flip worklist's dedup set: an
// open-addressing table, at most half full, in which 0 marks an empty entry
// (word 0 is reserved, never a slot). It grows to twice the largest worklist
// and keeps its table when the flip empties it, so a warm collector queues
// without allocating. A Go map would not do: clear keeps its tables but
// reseeds its hash, so that the same number of keys splits them again.
type wordSet struct {
	table []uint64
	n     int
}

// add puts w in the set and reports whether it was absent.
func (s *wordSet) add(w uint64) bool {
	if 2*(s.n+1) > len(s.table) {
		old := s.table
		s.table, s.n = make([]uint64, max(2*len(old), 64)), 0
		for _, v := range old {
			if v != 0 {
				s.add(v)
			}
		}
	}
	mask := uint64(len(s.table) - 1)
	for i := w * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		switch s.table[i] {
		case w:
			return false
		case 0:
			s.table[i] = w
			s.n++
			return true
		}
	}
}

// clear empties the set and keeps its table.
func (s *wordSet) clear() {
	if s.n > 0 {
		clear(s.table)
		s.n = 0
	}
}

// hiddenHolder reports whether holder, a to-space object that is (replica) or
// is not one of the major's replicas, is hidden from the mutator until the
// flip: a replica no visible slot has been redirected to, which every replica
// of a mutable object is, since every reference to one stays on the original
// until then. An exposed replica (expose) is not, nor is anything promoted or
// allocated in to-space: a minor replica is visible from the next minor flip.
func (c *Replicating) hiddenHolder(holder heap.Value, replica bool) bool {
	return replica && !c.noHiding && !c.h.Marked(holder)
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
func (c *Replicating) scan(m *Mutator, g *generation) (bool, error) {
	h, from := c.h, g.from
	for g.scan < g.to.Next {
		if g.scanSlot == 0 && g.skipIdx < len(g.skips) && g.skips[g.skipIdx].start == g.scan {
			g.scan += g.skips[g.skipIdx].words
			g.skipIdx++
			continue
		}
		if c.overBudget(m) {
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
			c.pauses.Charge(m, g.acct, simtime.Duration(hdr.SizeWords())*m.Cost.ScanWord)
			g.scan += uint64(hdr.SizeWords())
			continue
		}
		// Pointer-bearing objects are scanned slot by slot so that even a
		// single large object cannot blow the pause budget (the paper's
		// §3.4 incremental-large-object extension); the slot cursor
		// resumes at the next increment.
		if g.scanSlot == 0 {
			c.pauses.Charge(m, g.acct, m.Cost.ScanWord) // header word
		}
		// Nothing this loop does exposes p: a hidden holder's slots expose
		// nothing, and a visible one is visible already.
		hidden := g.major && c.hiddenHolder(p, g.scanningReplica())
		for i := g.scanSlot; i < hdr.Len(); i++ {
			if c.overBudget(m) {
				g.scanSlot = i
				return false, nil
			}
			c.pauses.Charge(m, g.acct, m.Cost.ScanWord)
			v := h.Load(p, i)
			if !from.Contains(v) {
				continue
			}
			// Forward the pointer. A forwarder that hands v itself back has
			// queued the slot, which keeps its from-space pointer for now.
			var nv heap.Value
			var err error
			if g.major {
				nv, err = c.toSpaceValue(m, v, p, i, hidden)
			} else {
				nv, err = c.minorValue(m, v, p, i)
			}
			if err != nil {
				g.scanSlot = i // resume exactly at the failed slot
				return false, err
			}
			if nv != v {
				h.Store(p, i, nv)
			}
		}
		g.scanSlot = 0
		g.scan += uint64(hdr.SizeWords())
	}
	return true, nil
}

// flip atomically redirects the mutator onto g's replicas, the paper's
// completion step for either generation: the slots on g's worklist are
// re-pointed, then every mutator root, and the cycle ends (endMinor, endMajor).
// A typed exhaustion error from a straggler copy aborts the flip with the cycle
// still active: nothing is truncated until every fallible step has succeeded,
// and the already-re-pointed slots no longer hold from-space values, so a
// retried flip skips them.
func (c *Replicating) flip(m *Mutator, g *generation) error {
	g.mustNotBeCopying()
	if g.major {
		c.stats.LargestFlipWorklist = max(c.stats.LargestFlipWorklist, len(g.worklist))
	}
	for _, f := range g.worklist {
		if err := c.repoint(m, g, f.obj, int(f.slot)); err != nil {
			return err
		}
	}
	g.worklist = g.worklist[:0]
	g.seen.clear()
	g.active, g.deferrals = false, 0
	c.redirectRoots(m, g)
	if g.major {
		c.endMajor(m)
	} else {
		c.endMinor(m)
	}
	return nil
}

// endMinor ends a minor cycle once its flip has moved the roots: the nursery
// is discarded and the next cycle's allocation room granted.
func (c *Replicating) endMinor(m *Mutator) {
	h, g := c.h, &c.minor
	// Advance the minor cursor over anything the flip appended for the
	// major collection: those entries are not nursery business.
	g.logCursor = m.Log.Len()

	h.Nursery.Reset()
	promoted := c.stats.BytesCopiedMinor - c.minorStartCopy
	c.promotedSinceMajor += promoted
	if promoted > c.promoHighWater {
		c.promoHighWater = promoted // feeds the headroom reservation
	}
	c.stats.MinorCollections++
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
}

// endMajor ends a major cycle once its flip has moved the roots: the
// semispaces swap and the from-space is discarded.
func (c *Replicating) endMajor(m *Mutator) {
	h := c.h
	if h.Nursery.UsedWords() != 0 {
		//gclint:allow panicpath -- invariant: majors only flip right after a minor flip emptied the nursery
		panic("core: major flip with non-empty nursery")
	}
	h.SwapOld()
	c.promotedSinceMajor = 0
	c.stats.MajorCollections++

	// Both cursors are at the log's end; everything can go.
	c.major.logCursor = m.Log.Len()
	c.minor.logCursor = m.Log.Len()
	m.Log.TrimTo(m.Log.Len())
}

// repoint re-points one slot from a flip worklist at its referent's replica
// and charges the flip for it; a straggler that has no replica yet gets one. A
// slot that no longer holds a from-space pointer, overwritten since, is left
// alone and charged nothing: a later entry handled it.
func (c *Replicating) repoint(m *Mutator, g *generation, obj heap.Value, slot int) error {
	v := c.h.Load(obj, slot)
	if !g.from.Contains(v) {
		return nil
	}
	replica, err := c.replicate(m, g, v)
	if err != nil {
		return err
	}
	c.h.Store(obj, slot, replica)
	c.stats.FlipEntryUpdates++
	c.pauses.cur.FlipEntries++
	c.pauses.Charge(m, simtime.AcctFlip, m.Cost.FlipEntry)
	return nil
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
	c.pauses.Charge(m, simtime.AcctFlip, simtime.Duration(len(roots))*m.Cost.RootUpdate)
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
// process the log only).
//
// An emergency pause overrides the threshold: the old generation is the
// only place a degraded collection can reclaim space, so the major runs
// (and completes) regardless of O.
func (c *Replicating) afterMinorFlip(m *Mutator) error {
	if !c.major.active {
		trigger := c.cfg.MajorThresholdBytes > 0 && c.promotedSinceMajor >= c.cfg.MajorThresholdBytes
		if c.replay != nil {
			trigger = c.forcedMajorFlip
		}
		if c.pauses.cur.Cause.Emergency() {
			trigger = true
		}
		if !trigger {
			return nil
		}
		c.startMajor(m)
	}
	forceMajor := c.pauses.cur.Cause.Emergency() || !c.cfg.IncrementalMajor || (c.replay != nil && c.forcedMajorFlip)
	// A forced increment — an emergency's, the non-incremental major, a
	// replayed script's flip — runs with the deadline lifted, and leaves
	// what is left of the pause's budget as it found it.
	if forceMajor {
		defer c.restore(c.lift(simtime.LiftMajor), 0)
	}
	flipped, err := c.majorIncrement(m)
	if flipped {
		c.forcedMajorFlip = false
		if c.cfg.Record != nil && !c.finishing && c.cfg.Record.Len() > 0 {
			c.cfg.Record.Events[c.cfg.Record.Len()-1].MajorFlip = true
		}
	}
	return err
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
	c.h.ClearMarks()
	c.major.walk = c.major.walk[:0]
}

// majorIncrement performs one increment of the major collection and reports
// whether it completed (including its flip). Nothing runs once the pause
// budget is spent (paper §3.3). It runs right after a minor flip, when no
// old→nursery pointers exist.
func (c *Replicating) majorIncrement(m *Mutator) (bool, error) {
	g := &c.major
	if !c.resumeCopy(m, g) {
		return false, nil
	}

	// 1. Drain the major log: reapply mutations to existing replicas of
	// old-from objects, and track from-space references stored into
	// mutator-visible to-space objects.
	done, err := c.processMajorLog(m)
	if !done {
		return false, err
	}

	if c.overBudget(m) {
		return false, nil
	}

	// 2. Advance the implicit Cheney scan toward the old-to frontier.
	if done, err := c.scan(m, g); !done {
		return false, err
	}

	// 3. Scan and log are drained: attempt completion. The nursery is empty
	// right after a minor flip, so roots reference only the old generation or
	// immediates; to-space referents need no action, since the cursor sweeps
	// them by address.
	return c.attempt(m, g)
}

// drainDeferredMajor is the major attempt's step between its root pass and its
// flip: the deferred mutable copies (§2.5), whose slots are on the flip's
// worklist, are replicated within the budget and traced until none remain
// (each round can expose more). It reports whether the flip may follow.
func (c *Replicating) drainDeferredMajor(m *Mutator, g *generation) (bool, error) {
	if c.cfg.DeferMutableCopies {
		for {
			for _, f := range g.worklist {
				v := c.h.Load(f.obj, int(f.slot))
				if !g.from.Contains(v) || c.h.IsForwarded(v) {
					continue
				}
				if c.overBudget(m) {
					return false, nil
				}
				if _, err := c.replicate(m, g, v); err != nil {
					return false, err
				}
			}
			if g.scanDone() {
				break
			}
			if done, err := c.scan(m, g); !done {
				return false, err
			}
		}
	}
	return g.logCursor == m.Log.Len() && g.scanDone(), nil
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
// with the deadline lifted, counted and marked on its pause (Pause.Overrun):
// the one exemption from the pause bound. The gate returns the deadline it
// lifted, pushed out by the attempt's cost, for the caller to restore when the
// attempt ends (0 when it lifted nothing): the cost stays outside the budget of
// the rest of the pause, or a root set too long for the budget would leave the
// other generation nothing, pause after pause. wait reports a refusal.
func (c *Replicating) deferAttempt(m *Mutator, g *generation, rootVisits int) (over simtime.Duration, wait bool) {
	if c.deadline <= 0 || c.noGate {
		return 0, false
	}
	cost := simtime.Duration(len(g.worklist))*m.Cost.FlipEntry + simtime.Duration(rootVisits)*m.Cost.RootUpdate
	if m.Clock.Now()+cost <= c.deadline {
		return 0, false
	}
	if cost > c.budget(m) || g.deferrals >= maxFlipDeferrals {
		c.stats.Overruns++
		c.pauses.cur.Overrun += cost
		return c.lift(simtime.LiftOverrun) + cost, false
	}
	g.deferrals++
	c.stats.Deferrals++
	c.pauses.cur.Cause |= simtime.Deferral
	if g.major {
		c.setNurseryLimit(c.expandBytes())
	}
	return 0, true
}

// processMajorLog consumes pending log entries for the major collection;
// it reports whether the log is drained (false when the pause's budget ran
// out first). A typed exhaustion error rewinds the cursor to the failed
// entry.
func (c *Replicating) processMajorLog(m *Mutator) (bool, error) {
	h, g := c.h, &c.major
	for g.logCursor < m.Log.Len() {
		_, e, ok := c.takeLogEntry(m, g)
		if !ok {
			return false, nil
		}
		switch {
		case h.OldFrom().Contains(e.Obj):
			if !h.IsForwarded(e.Obj) {
				continue // unreplicated: the copy will carry current contents
			}
			if !e.Byte && h.Nursery.Contains(h.Load(e.Obj, int(e.Slot))) {
				//gclint:allow panicpath -- invariant: the minor flip re-points every logged old→nursery slot
				panic("core: old object holds nursery pointer after a minor flip")
			}
			replica := h.ForwardAddr(e.Obj)
			if err := c.reapply(m, e, replica, c.hiddenHolder(replica, true)); err != nil {
				return c.rewindLogEntry(g, err)
			}

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
