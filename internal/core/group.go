package core

// Multi-mutator groups: N mutator contexts sharing one heap and one
// collector.
//
// The paper's replication collector was built for ML threads — many mutators
// over a single heap, with the collector interleaved between them, on one
// processor: SML/NJ threads share one allocation pointer and one storelist.
// A Group reproduces that shape. It owns everything that is per-heap — the
// mutation log, the root set, the simulated clock, the collector — and every
// member Mutator allocates at the one nursery cursor and appends to the one
// log, in execution order. What a member keeps to itself is its shadow
// handle stack (registered as one more source in the shared root set, so
// root enumeration at flips spans every mutator), its counters and its Actor
// index. A member of a four-member group is the same object, on the same
// code paths, as the member of a one-member group.
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
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// Group is a set of mutator contexts sharing one heap, one collector, one
// mutation log and one root set.
type Group struct {
	Clock *simtime.Clock // shared total-work timeline
	Log   *MutationLog   // the one log every member's write barrier appends to
	Roots *RootSet       // every member's handle stack plus externally registered sources
	GC    Collector

	Members []*Mutator

	// MergedEntries and MergeDropped are never written and always read 0:
	// members append to Log directly, so there is no merge to count. They
	// stay declared only because the frozen benchmarks/host reads them.
	MergedEntries int64
	MergeDropped  int64

	// Wall-timeline projection state (see reconcileTo). No report of this
	// module reads the projection — Elapsed, Work, Utilization, OverlapRatio,
	// GroupPauses — any more; the tests and the frozen benchmarks/host do:
	// its group4 workload's sim_elapsed_ms is Elapsed and its sim_pause_*
	// read GroupPauses.
	wall       []simtime.Duration // per-member wall clocks
	work       []simtime.Duration // per-member useful (non-waiting) time
	wallGC     simtime.Duration   // the collector actor's wall clock
	reconciled simtime.Duration   // serial-clock point folded in so far
	pauseSeen  int                // pauses of GC.Pauses() folded in so far
	rec        simtime.Recorder   // all-stopped intervals, in wall coordinates
}

// NewGroup builds a group of n mutator contexts over h. Every member's
// barrier appends to the group's one log and every member's allocation bumps
// the nursery cursor, whatever n is.
func NewGroup(h *heap.Heap, clock *simtime.Clock, cost simtime.CostModel, policy LogPolicy, n int) *Group {
	if n < 1 {
		//gclint:allow panicpath -- invariant: construction-time misuse, not resource exhaustion
		panic("core: group needs at least one mutator")
	}
	g := &Group{
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
		}
		g.Roots.Register(&m.handles)
		g.Members = append(g.Members, m)
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
		// The all-stopped interval keeps everything the collector recorded
		// about its pause but where it sits and how long it is.
		stopped := p
		stopped.At, stopped.Length, stopped.Sync = t, sync, sync
		g.rec.Pauses = append(g.rec.Pauses, stopped)
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
