package core

// Multi-mutator groups: N mutator contexts sharing one heap and one
// collector.
//
// The paper's replication collector was built for ML threads — many mutators
// over a single heap, with the collector interleaved between them. The
// context split here reproduces that shape. A Group owns the state that is
// logically per-heap (the collector-facing mutation log, the root set, the
// simulated clock, the collector), while each member Mutator keeps what is
// logically per-thread: its own nursery bump chunk (allocation between
// safepoints touches no shared cursor), its own private mutation log (the
// write barrier appends with no sharing), and its own shadow handle stack
// (registered as one more source in the shared root set, so root
// enumeration at flips spans every mutator).
//
// The merge rule is the same one internal/checkpoint relies on for WAL
// commit: entries are value-free, so the log is a set of dirty locations,
// not a sequence of values. At every pause entry — before any log cursor
// moves — the group seals each member's chunk and folds each member's
// private log into the shared log in canonical (Obj, Slot, Byte, Len)
// order, dropping exact duplicates. Replay re-reads the slot's current
// contents, so the merged order (and the order members ran in) cannot
// change what any entry applies. The shared heap's dirty map is cleared by
// BeginLogEpoch at that same pause entry — its undo list names every word
// any member marked — so every member's coalescing marks are invalidated
// together.
//
// Time: members share one Clock, which therefore accumulates total work —
// the serial timeline. Run/reconcile project that serial timeline onto
// per-mutator wall timelines in which only a pause's Sync portion (root
// scan, flip, checkpoint commit) stops everyone, while the rest of the
// pause overlaps with other mutators' execution. The collector is one more
// actor on those timelines: its non-sync pause work advances only its own
// wall clock and that of the mutator whose allocation triggered the pause.
// Utilization and MMU computed from the group recorder thus reflect genuine
// mutator/collector overlap, while determinism is untouched — wall
// accounting observes the serial execution, it never steers it.

import (
	"sort"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// Group is a set of mutator contexts sharing one heap, one collector, one
// collector-facing mutation log and one root set.
type Group struct {
	H     *heap.Heap
	Clock *simtime.Clock // shared total-work timeline
	Log   *MutationLog   // the collector-facing log every member merges into
	Roots *RootSet       // every member's handle stack plus externally registered sources
	GC    Collector

	Members []*Mutator

	// MergedEntries counts log entries folded into the shared log at pause
	// entries; MergeDropped counts the exact duplicates the canonical-order
	// dedup removed on top of that.
	MergedEntries int64
	MergeDropped  int64

	chunkWords uint64
	mergeOrder []int      // member order for draining locals; nil = index order
	scratch    []LogEntry // reused merge buffer

	// Wall-timeline projection state (see reconcileTo).
	wall       []simtime.Duration // per-member wall clocks
	work       []simtime.Duration // per-member useful (non-waiting) time
	wallGC     simtime.Duration   // the collector actor's wall clock
	reconciled simtime.Duration   // serial-clock point folded in so far
	pauseSeen  int                // pauses of GC.Pauses() folded in so far
	rec        simtime.Recorder   // all-stopped intervals, in wall coordinates
}

// NewGroup builds a group of n mutator contexts over h. With n == 1 the
// shared log is the single member's barrier target and allocation bumps the
// space cursor directly, so no merge or chunk seal ever has work to do. With
// n > 1 each member gets a private log and a private nursery chunk.
func NewGroup(h *heap.Heap, clock *simtime.Clock, cost simtime.CostModel, policy LogPolicy, n int) *Group {
	if n < 1 {
		//gclint:allow panicpath -- invariant: construction-time misuse, not resource exhaustion
		panic("core: group needs at least one mutator")
	}
	g := &Group{
		H:     h,
		Clock: clock,
		Log:   &MutationLog{},
		Roots: &RootSet{},
		wall:  make([]simtime.Duration, n),
		work:  make([]simtime.Duration, n),
	}
	for i := 0; i < n; i++ {
		m := &Mutator{
			H:      h,
			Clock:  clock,
			Cost:   cost,
			Log:    g.Log,
			Roots:  g.Roots,
			Policy: policy,
			Actor:  i,
			group:  g,
		}
		m.local = g.Log
		if n > 1 {
			m.local = &MutationLog{}
			m.chunked = true
		}
		g.Roots.Register(&m.handles)
		g.Members = append(g.Members, m)
	}

	// Chunks sized so each member refills a handful of times per nursery
	// fill: a quarter of an even split, clamped to keep both the refill
	// rate and the sealed-filler waste bounded.
	cw := uint64(h.Nursery.LimitBytes()) / heap.BytesPerWord / uint64(4*n)
	if cw < 64 {
		cw = 64
	}
	if cw > 8192 {
		cw = 8192
	}
	g.chunkWords = cw

	prev := h.PreEpochHook
	h.PreEpochHook = func() {
		if prev != nil {
			prev()
		}
		g.pauseEntry()
	}
	return g
}

// AttachGC wires the collector into the group and every member.
func (g *Group) AttachGC(gc Collector) {
	g.GC = gc
	for _, m := range g.Members {
		m.AttachGC(gc)
	}
}

// SetMergeOrder overrides the order member logs are drained in at merge
// time (a permutation of member indices). It exists so tests can prove the
// canonical merge makes results independent of drain order; nil restores
// index order.
func (g *Group) SetMergeOrder(order []int) { g.mergeOrder = order }

// pauseEntry is the group's half of pause entry, invoked from
// Heap.BeginLogEpoch before the dirty map is cleared: every member's nursery
// chunk is sealed (the nursery must walk as a dense object sequence while
// the collector owns it) and every member's private log is folded into the
// shared log, so that no collector cursor can move before all members'
// mutations are visible. The clear that follows invalidates every member's
// coalescing marks at once.
//
//gclint:pauseentry invoked only from Heap.BeginLogEpoch, which every collector calls immediately after Clock.BeginPause
func (g *Group) pauseEntry() {
	for _, m := range g.Members {
		if m.chunked {
			g.H.SealChunk(&m.chunk)
		}
	}
	g.mergeLogs()
}

// mergeLogs drains each member's private log and appends the union to the
// shared log in canonical (Obj, Slot, Byte, Len) order with exact
// duplicates removed. Entries are value-free, so dropping a duplicate and
// ordering canonically are both sound — replay re-reads current slot
// contents — and they make the merged log independent of the order members
// are drained in.
func (g *Group) mergeLogs() {
	batch := g.scratch[:0]
	if g.mergeOrder != nil {
		for _, i := range g.mergeOrder {
			batch = g.drainMember(batch, i)
		}
	} else {
		for i := range g.Members {
			batch = g.drainMember(batch, i)
		}
	}
	g.scratch = batch[:0]
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(i, j int) bool { return entryLess(batch[i], batch[j]) })
	for i, e := range batch {
		if i > 0 && e == batch[i-1] {
			g.MergeDropped++
			continue
		}
		g.Log.Append(e)
		g.MergedEntries++
	}
}

func (g *Group) drainMember(batch []LogEntry, i int) []LogEntry {
	if m := g.Members[i]; m.local != g.Log {
		batch = append(batch, m.local.TakeAll()...)
	}
	return batch
}

// entryLess is the canonical merge order.
func entryLess(a, b LogEntry) bool {
	if a.Obj != b.Obj {
		return a.Obj < b.Obj
	}
	if a.Slot != b.Slot {
		return a.Slot < b.Slot
	}
	if a.Byte != b.Byte {
		return !a.Byte // word entries before byte entries on the same slot
	}
	return a.Len < b.Len
}

// refillAlloc is the slow path of a chunked member's nursery allocation:
// the current chunk is out of room, so seal it and carve a fresh one off
// the shared cursor. Objects larger than a chunk, and the nursery's final
// sub-chunk tail, fall back to direct shared-cursor allocation.
func (g *Group) refillAlloc(m *Mutator, k heap.Kind, n int) (heap.Value, bool) {
	need := uint64(heap.MakeHeader(k, n).SizeWords())
	if need > g.chunkWords {
		return m.H.AllocIn(&m.H.Nursery, k, n)
	}
	m.H.SealChunk(&m.chunk)
	c, ok := m.H.ReserveChunk(&m.H.Nursery, g.chunkWords)
	if !ok {
		return m.H.AllocIn(&m.H.Nursery, k, n)
	}
	m.chunk = c
	return m.H.AllocInChunk(&m.chunk, k, n)
}

// Run executes one quantum of member i — f runs against that member — and
// folds the serial-clock time it consumed into the wall timelines. Callers
// drive a group by interleaving quanta: each member makes progress on the
// shared clock in turn, and any pauses the collector took during the
// quantum are attributed per the overlap model.
func (g *Group) Run(i int, f func(m *Mutator) error) error {
	g.reconcileTo(-1, g.Clock.Now())
	err := f(g.Members[i])
	g.reconcileTo(i, g.Clock.Now())
	return err
}

// reconcileTo folds the serial-clock segment (g.reconciled, upTo] into the
// per-actor wall timelines. actor is the member whose quantum produced the
// segment, or -1 for time elapsed outside any quantum (setup, teardown,
// direct collector calls), which is treated as a global barrier.
//
// Within the segment, non-pause time is the actor's own progress: its wall
// and work clocks advance, nobody else's do. Each pause recorded by the
// collector becomes an all-stopped rendezvous of only its Sync duration:
// every actor's wall clock is brought to the barrier point (the maximum
// wall time so far — actors that were "ahead" are simply waited for) and
// advanced by Sync. The remaining pause work belongs to the collector
// actor: its wall clock, and that of the triggering member (whose
// allocation cannot complete until the pause ends), advance by the full
// pause length, overlapping the other members' subsequent quanta. For a
// pause whose Sync is zero or exceeds its length — emergencies, forced
// completions, stop-and-copy — the rendezvous spans the whole pause and the
// model degenerates to the serial timeline.
func (g *Group) reconcileTo(actor int, upTo simtime.Duration) {
	var ps []simtime.Pause
	if g.GC != nil {
		ps = g.GC.Pauses().Pauses
	}
	cl := g.reconciled
	for ; g.pauseSeen < len(ps) && ps[g.pauseSeen].At < upTo; g.pauseSeen++ {
		p := ps[g.pauseSeen]
		g.advance(actor, p.At-cl)
		sync := p.Sync
		if actor < 0 || sync <= 0 || sync > p.Length {
			sync = p.Length
		}
		t := g.wallGC
		for _, w := range g.wall {
			if w > t {
				t = w
			}
		}
		g.rec.Record(simtime.Pause{
			At: t, Length: sync, Sync: sync,
			Kind: p.Kind, CopiedB: p.CopiedB, LogProcN: p.LogProcN,
		})
		for j := range g.wall {
			g.wall[j] = t + sync
		}
		g.wallGC = t + p.Length
		if actor >= 0 {
			g.wall[actor] = t + p.Length
		}
		cl = p.At + p.Length
	}
	g.advance(actor, upTo-cl)
	g.reconciled = upTo
}

// advance credits d of mutator-side progress to actor (or to everyone, as
// barrier time, when actor < 0).
func (g *Group) advance(actor int, d simtime.Duration) {
	if d <= 0 {
		return
	}
	if actor < 0 {
		for j := range g.wall {
			g.wall[j] += d
		}
		return
	}
	g.wall[actor] += d
	g.work[actor] += d
}

// Elapsed reports the group's wall-clock makespan: the furthest wall
// timeline, collector actor included. With one member this equals the
// serial clock; with overlap it is smaller than the serial clock by
// exactly the overlapped collector work.
func (g *Group) Elapsed() simtime.Duration {
	e := g.wallGC
	for _, w := range g.wall {
		if w > e {
			e = w
		}
	}
	return e
}

// Work reports member i's accumulated useful (non-waiting) wall time.
func (g *Group) Work(i int) simtime.Duration { return g.work[i] }

// Wall reports member i's current wall-clock time.
func (g *Group) Wall(i int) simtime.Duration { return g.wall[i] }

// Utilization reports member i's useful fraction of the group makespan.
func (g *Group) Utilization(i int) float64 {
	e := g.Elapsed()
	if e <= 0 {
		return 1
	}
	return float64(g.work[i]) / float64(e)
}

// OverlapRatio reports serial-clock time over wall-clock makespan: 1.0 when
// nothing overlapped (one member), and greater than 1 when mutators
// genuinely ran during collector-side pause work.
func (g *Group) OverlapRatio() float64 {
	e := g.Elapsed()
	if e <= 0 {
		return 1
	}
	return float64(g.Clock.Now()) / float64(e)
}

// GroupPauses exposes the all-stopped intervals in wall coordinates — the
// recorder to compute multi-mutator MMU from (simtime.MMUFromPauses).
func (g *Group) GroupPauses() *simtime.Recorder { return &g.rec }
