package workload

// The serving engine. Serve replays a materialised trace through one
// runtime: requests arrive open-loop at their trace instants, queue behind
// the single simulated server, allocate and mutate session state through the
// Mutator (so the write barrier, the mutation log and the collector all see
// real traffic), and are timed on the simulated clock. GC pauses therefore
// surface exactly where a service feels them: as queue growth and latency
// tails, attributed per request as "intrusion" — the pause time overlapping
// the request's arrival-to-completion window.
//
// Session state lives on the mutator's handle stack (the repository's
// shadow-stack discipline), so roots survive flips without any new root
// plumbing, and every heap.Value is re-read from its handle after a call
// that may collect.

import (
	"fmt"
	"slices"
	"sort"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// Runtime is one constructed server: the shared runtime, of which the engine
// drives Mutator and reads the rest through Stats.
type Runtime = rig.Runtime

// NewRuntime builds a server sized by spec's heap parameters. c supplies the
// collector and anything else the caller wants attached.
func NewRuntime(spec *Spec, c rig.Config) (*Runtime, error) {
	hs := spec.Heap.WithDefaults()
	c.Params = rig.Params{NBytes: hs.NurseryKB << 10, OBytes: hs.MajorKB << 10, LBytes: hs.CopyLimitKB << 10}
	c.OldSemiBytes = hs.OldMB << 20
	return rig.New(c)
}

// ServeOptions tunes one Serve call.
type ServeOptions struct {
	// Inject, when non-nil, runs before each request is served; an error
	// aborts the run. The fault-injection tests wire an Injector.Tick here
	// so adversarial heap events land under live traffic.
	Inject func() error
}

// Serve drives the whole trace through rt and digests the outcome into a
// report leg named legName.
func Serve(rt *Runtime, t *Trace, legName string, opt ServeOptions) (*Leg, error) {
	m, gc, clock := rt.Mutator, rt.GC, rt.Mutator.Clock
	spec := t.Spec

	// Session root tables: one handle per session slot per cohort, pinned on
	// the mutator's shadow stack so the collector updates them at flips.
	slotCounts := t.slotCount()
	tables := make([][]core.Handle, len(spec.Cohorts))
	for ci, n := range slotCounts {
		tables[ci] = make([]core.Handle, n)
		for s := range tables[ci] {
			tables[ci][s] = m.PushHandle(heap.Nil)
		}
	}

	n := len(t.Reqs)
	starts := make([]simtime.Duration, n)
	ends := make([]simtime.Duration, n)
	depths := make([]int, n)
	k := 0 // arrival cursor for queue-depth samples
	for i := range t.Reqs {
		r := &t.Reqs[i]
		if now := clock.Now(); now < r.At {
			clock.Charge(simtime.AcctIdle, r.At-now)
		}
		start := clock.Now()
		starts[i] = start
		for k < n && t.Reqs[k].At <= start {
			k++
		}
		if k <= i {
			k = i + 1 // the request being served is always in the system
		}
		depths[i] = k - i

		if opt.Inject != nil {
			if err := opt.Inject(); err != nil {
				return nil, fmt.Errorf("workload: inject before request %d: %w", i, err)
			}
		}
		if err := serveOne(m, spec, tables, r, i); err != nil {
			return nil, fmt.Errorf("workload: request %d (cohort %s): %w",
				i, spec.Cohorts[r.Cohort].Name, err)
		}
		ends[i] = clock.Now()
	}
	elapsed := clock.Now()
	// Not rt.Finish(), which runs the closing pauses as a quantum of rt.Group:
	// the frozen benchmarks/host serves a Runtime it assembled itself, with no
	// Group (TestServeWithoutGroup), so Serve ends the run itself, and reads
	// it through rt.Stats, which needs no Group either.
	if err := gc.FinishCycles(m); err != nil {
		return nil, fmt.Errorf("workload: finishing collection cycles: %w", err)
	}
	return buildLeg(rt, t, legName, starts, ends, depths, elapsed)
}

// serveOne executes one request's heap work. gi is the request's global
// index, used to derive deterministic mutation slots and stored values.
func serveOne(m *core.Mutator, spec *Spec, tables [][]core.Handle, r *Req, gi int) error {
	tab := tables[r.Cohort]
	if r.NewWords > 0 {
		p, err := m.Alloc(heap.KindArray, int(r.NewWords))
		if err != nil {
			return fmt.Errorf("session state: %w", err)
		}
		m.Init(p, 0, heap.FromInt(int64(gi)))
		m.SetHandleVal(tab[r.Session], p)
	}
	for _, ob := range r.Objs {
		p, err := m.Alloc(heap.KindArray, int(ob.Words))
		if err != nil {
			return fmt.Errorf("request object: %w", err)
		}
		m.Init(p, 0, heap.FromInt(int64(gi)))
		if ob.Retain >= 0 {
			// Re-read the session root after the allocation above: the
			// collector may have flipped and updated the handle slot.
			sess := m.HandleVal(tab[r.Session])
			if sess != heap.Nil {
				m.Set(sess, int(ob.Retain), p)
			}
		}
	}
	if r.Muts > 0 {
		sess := m.HandleVal(tab[r.Session])
		if sess != heap.Nil {
			words := spec.Cohorts[r.Cohort].Profile.SessionWords
			for j := 0; j < int(r.Muts); j++ {
				slot := int((uint32(gi)*2654435761 + uint32(j)*40503) % uint32(words))
				m.Set(sess, slot, heap.FromInt(int64(gi+j)))
			}
		}
	}
	m.Step(int(r.Steps))
	if r.End {
		m.SetHandleVal(tab[r.Session], heap.Nil)
	}
	return nil
}

// p99Rank is the index of the nearest-rank 99th percentile among n ≥ 1
// sorted samples: ⌈99n/100⌉ − 1, in integers, the rule simtime's percentiles
// use.
func p99Rank(n int) int { return (99*n+99)/100 - 1 }

// buildLeg digests one served run. The heap fingerprint is computed last:
// walking the graph charges header-check time to the clock, which must not
// perturb any latency measurement.
func buildLeg(rt *Runtime, t *Trace, legName string,
	starts, ends []simtime.Duration, depths []int, elapsed simtime.Duration) (*Leg, error) {

	spec := t.Spec
	// The run's report, over the whole run, its closing pauses included.
	st := rt.Stats()
	idx := simtime.NewPauseIndex(st.Pauses.Pauses)

	leg := &Leg{
		Name:      legName,
		ElapsedMs: elapsed.Milliseconds(),
		IdleMs:    st.Breakdown[simtime.AcctIdle].Milliseconds(),
		Requests:  len(t.Reqs),
	}

	// Queue stats over the per-request service-start samples.
	if n := len(depths); n > 0 {
		sum := 0
		max := 0
		sorted := make([]int, n)
		copy(sorted, depths)
		sort.Ints(sorted)
		for _, d := range depths {
			sum += d
			if d > max {
				max = d
			}
		}
		leg.Queue = QueueStats{
			MeanDepth: float64(sum) / float64(n),
			P99Depth:  sorted[p99Rank(n)],
			MaxDepth:  max,
		}
	}

	// Per-cohort latency, queue wait, intrusion, SLO.
	sessions := t.Sessions()
	type acc struct {
		lats, waits, intrs []simtime.Duration
	}
	accs := make([]acc, len(spec.Cohorts))
	for i := range t.Reqs {
		r := &t.Reqs[i]
		a := &accs[r.Cohort]
		a.lats = append(a.lats, ends[i]-r.At)
		a.waits = append(a.waits, starts[i]-r.At)
		a.intrs = append(a.intrs, idx.Between(r.At, ends[i]))
	}
	for ci := range spec.Cohorts {
		c := &spec.Cohorts[ci]
		a := &accs[ci]
		cm := CohortMetrics{
			Name:     c.Name,
			Requests: len(a.lats),
			Sessions: sessions[ci],
		}
		lq := simtime.Percentiles(a.lats, 50, 95, 99, 99.9, 100)
		cm.Latency = Latency{
			P50:  lq[0].Milliseconds(),
			P95:  lq[1].Milliseconds(),
			P99:  lq[2].Milliseconds(),
			P999: lq[3].Milliseconds(),
			Max:  lq[4].Milliseconds(),
		}
		var latSum, intrSum simtime.Duration
		for _, d := range a.lats {
			latSum += d
		}
		for _, d := range a.intrs {
			intrSum += d
		}
		if n := len(a.lats); n > 0 {
			cm.Latency.Mean = (latSum / simtime.Duration(n)).Milliseconds()
		}
		cm.QueueWaitP99Ms = simtime.Percentile(a.waits, 99).Milliseconds()
		cm.Intrusion = Intrusion{
			TotalMs: intrSum.Milliseconds(),
			P99Ms:   simtime.Percentile(a.intrs, 99).Milliseconds(),
		}
		if latSum > 0 {
			cm.Intrusion.PctOfLatency = 100 * float64(intrSum) / float64(latSum)
		}
		target := simtime.Duration(c.SLO.TargetMs * float64(simtime.Millisecond))
		deadline := simtime.Duration(c.SLO.DeadlineMs * float64(simtime.Millisecond))
		cm.SLO = SLOBreakdown{TargetMs: c.SLO.TargetMs, DeadlineMs: c.SLO.DeadlineMs}
		for _, d := range a.lats {
			switch {
			case d <= target:
				cm.SLO.Met++
			case d <= deadline:
				cm.SLO.Late++
			default:
				cm.SLO.Missed++
			}
		}
		leg.Cohorts = append(leg.Cohorts, cm)
	}

	// Request-granularity MMU: the standard ladder merged with every
	// cohort's SLO target.
	for _, c := range spec.Cohorts {
		w := simtime.Duration(c.SLO.TargetMs * float64(simtime.Millisecond))
		if w > 0 && w < st.Elapsed {
			st.MMUWindows = append(st.MMUWindows, w)
		}
	}
	slices.Sort(st.MMUWindows)
	st.MMUWindows = slices.Compact(st.MMUWindows)
	leg.Stats, leg.Run = st, st.Row()

	leg.HeapFingerprint = fmt.Sprintf("%016x", heapFingerprint(rt.Mutator, t))
	return leg, nil
}

// heapFingerprint is the end-of-run heap fingerprint: core's reachable-graph
// digest over every session root in (cohort, slot) order, identical across
// collectors that served the same trace correctly — the cross-collector
// oracle of the determinism matrix. The engine's root tables are a prefix of
// the handle stack, pushed in that order before any request ran; cohort
// boundaries are mixed in so an empty cohort still shapes the digest.
func heapFingerprint(m *core.Mutator, t *Trace) uint64 {
	return m.GraphDigest(func(mix func(uint64), walk func(heap.Value)) {
		h := core.Handle(0)
		for ci, slots := range t.slotCount() {
			mix(5)
			mix(uint64(ci))
			for s := int32(0); s < slots; s++ {
				walk(m.HandleVal(h))
				h++
			}
		}
	})
}
