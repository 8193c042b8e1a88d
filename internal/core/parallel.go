package core

// Goroutine-backed groups: the same Group interface, with each member
// driven by a real goroutine instead of cooperatively scheduled quanta.
//
// This mode exists to exercise the multi-mutator data structures under the
// race detector, not to produce numbers: interleavings are scheduled by the
// Go runtime, so runs are not deterministic and no simulated-time metrics
// are derived from them. The synchronization discipline is the classic
// safepoint rendezvous:
//
//   - Each member gets its own Clock (clocks are written on every charge;
//     sharing one would race) and runs with NaiveBarrier set, so the write
//     barrier never touches the heap's dirty map or its undo list: shared,
//     unsynchronised state that only a stopped world (BeginLogEpoch) may
//     write. Logging goes to the member's private, single-writer log.
//   - Allocation inside a member's private nursery chunk is lock-free;
//     chunk refill and direct shared-cursor allocation take the group lock
//     and park first if a collection has been requested.
//   - A member whose allocation needs the collector requests stop-the-world
//     via the wrapping stwCollector: it waits until every other running
//     member has parked at a safepoint (Safepoint, a refill, or its own
//     collector request), then runs the underlying collector while it alone
//     owns the heap. The group merge at pause entry then reads every
//     member's private log with all members stopped.
//
// Workloads drive members with periodic Safepoint() calls; a member that
// allocates frequently parks at refills anyway, but Safepoint bounds the
// stop latency for read-mostly phases.

import (
	"sync"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// parRendezvous is the stop-the-world rendezvous state shared by a
// goroutine-backed group's members.
type parRendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stopReq bool // a collection wants (or has) the world stopped
	active  int  // members currently running in goroutines
	parked  int  // members currently waiting at a safepoint
}

// ParallelGroup drives a Group's members with real goroutines.
type ParallelGroup struct {
	G   *Group
	rdv *parRendezvous
}

// NewParallelGroup builds an n-member goroutine-backed group over h. The
// members come back reconfigured for parallel execution: private clocks and
// naive (dirty-map-free) write barriers. Attach the collector with AttachGC —
// it is wrapped so that every collection entry point stops the world first.
func NewParallelGroup(h *heap.Heap, cost simtime.CostModel, policy LogPolicy, n int) *ParallelGroup {
	g := NewGroup(h, simtime.NewClock(), cost, policy, n)
	pg := &ParallelGroup{G: g, rdv: &parRendezvous{}}
	pg.rdv.cond = sync.NewCond(&pg.rdv.mu)
	g.par = pg.rdv
	for i, m := range g.Members {
		if i > 0 {
			m.Clock = simtime.NewClock()
		}
		m.NaiveBarrier = true
	}
	return pg
}

// AttachGC wires gc into the group behind a stop-the-world wrapper.
func (pg *ParallelGroup) AttachGC(gc Collector) {
	pg.G.GC = gc
	wrapped := &stwCollector{rdv: pg.rdv, Collector: gc}
	for _, m := range pg.G.Members {
		m.AttachGC(wrapped)
	}
}

// Run starts one goroutine per workload function (fn[i] drives member i)
// and blocks until all of them return, collecting their errors.
func (pg *ParallelGroup) Run(fns []func(m *Mutator) error) []error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	pg.rdv.mu.Lock()
	pg.rdv.active += len(fns)
	pg.rdv.mu.Unlock()
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func(m *Mutator) error) {
			defer wg.Done()
			defer pg.exitWorker()
			errs[i] = fn(pg.G.Members[i])
		}(i, fn)
	}
	wg.Wait()
	return errs
}

func (pg *ParallelGroup) exitWorker() {
	pg.rdv.mu.Lock()
	pg.rdv.active--
	pg.rdv.cond.Broadcast()
	pg.rdv.mu.Unlock()
}

// Safepoint parks the calling member for the duration of any in-progress
// stop-the-world collection. Workloads call it between operations.
func (pg *ParallelGroup) Safepoint() {
	pg.rdv.mu.Lock()
	pg.rdv.parkIfStoppedLocked()
	pg.rdv.mu.Unlock()
}

// parkIfStoppedLocked waits out any stop-the-world request while counted as
// parked. Callers hold mu.
func (r *parRendezvous) parkIfStoppedLocked() {
	for r.stopReq {
		r.parked++
		r.cond.Broadcast() // the stopper may be waiting on the parked count
		for r.stopReq {
			r.cond.Wait()
		}
		r.parked--
	}
}

// stopTheWorldAnd waits until every other active member is parked, runs f
// with the world stopped, then releases everyone. Concurrent requests
// serialize: the loser parks like any other member and re-requests after
// the winner finishes.
func (r *parRendezvous) stopTheWorldAnd(f func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parkIfStoppedLocked()
	r.stopReq = true
	for r.parked < r.active-1 {
		r.cond.Wait()
	}
	err := f()
	r.stopReq = false
	r.cond.Broadcast()
	return err
}

// stwCollector wraps a Collector so that its collection entry points
// perform the stop-the-world rendezvous first. Only the embedded
// interface's methods are promoted, so optional capabilities (Pacer,
// EmergencyCollector, promotion-space queries) deliberately do not leak
// through: a goroutine-backed run takes none of those side paths.
type stwCollector struct {
	rdv *parRendezvous
	Collector
}

func (s *stwCollector) CollectForAlloc(m *Mutator, needWords int) error {
	return s.rdv.stopTheWorldAnd(func() error { return s.Collector.CollectForAlloc(m, needWords) })
}

func (s *stwCollector) FinishCycles(m *Mutator) error {
	return s.rdv.stopTheWorldAnd(func() error { return s.Collector.FinishCycles(m) })
}

// compile-time check that the wrapper stays a plain Collector.
var _ Collector = (*stwCollector)(nil)
