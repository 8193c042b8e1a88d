package main

import (
	"fmt"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/trace"
)

// The two collectors every workload runs under: iteration 0 under the
// stop-and-copy baseline as the cross-collector oracle, the timed ones
// under the paper's real-time configuration.
const (
	collectorSC = "sc"
	collectorRT = "rt"
)

// heapParams are the paper's knobs for one run.
type heapParams struct {
	nurseryBytes   int64 // N
	majorBytes     int64 // O
	copyLimitBytes int64 // L
	oldSemiBytes   int64
}

// paperParams is the paper's 50 ms cell: N = 0.2 MB, O = 1 MB, L = 100 KB,
// on 96 MB semispaces.
var paperParams = heapParams{
	nurseryBytes:   209715, // 0.2 MB
	majorBytes:     1 << 20,
	copyLimitBytes: 100 << 10,
	oldSemiBytes:   96 << 20,
}

// rig is one constructed heap + mutator (or mutator group) + collector.
type rig struct {
	heap  *heap.Heap
	mut   *core.Mutator // members[0] of group when group != nil
	group *core.Group
	gc    *timedCollector

	arenaBytes int64 // the nursery at its cap plus both old semispaces
}

// newRig constructs the runtime: heap.New, then the mutator (a group when
// members > 1) and the collector, which is attached through the timing
// wrapper. tr, when non-nil, is the repository's own flight recorder.
func newRig(rec *recorder, p heapParams, collector string, members int, tr *trace.Recorder) (*rig, error) {
	nurseryCap := 16 * p.nurseryBytes
	if nurseryCap < 16<<20 {
		nurseryCap = 16 << 20
	}
	s := rec.begin("heap.new")
	h := heap.New(heap.Config{
		NurseryBytes:    p.nurseryBytes,
		NurseryCapBytes: nurseryCap,
		OldSemiBytes:    p.oldSemiBytes,
	})
	rec.end(s)

	var inner collectorAPI
	policy := core.LogAllMutations
	switch collector {
	case collectorSC:
		policy = core.LogPointersOnly
		inner = stopcopy.New(h, stopcopy.Config{
			NurseryBytes:        p.nurseryBytes,
			MajorThresholdBytes: p.majorBytes,
		})
	case collectorRT:
		inner = core.NewReplicating(h, core.Config{
			NurseryBytes:        p.nurseryBytes,
			MajorThresholdBytes: p.majorBytes,
			CopyLimitBytes:      p.copyLimitBytes,
			IncrementalMinor:    true,
			IncrementalMajor:    true,
		})
	default:
		return nil, fmt.Errorf("unknown collector %q", collector)
	}
	r := &rig{heap: h, gc: wrapCollector(inner, h, rec), arenaBytes: nurseryCap + 2*p.oldSemiBytes}
	clock := simtime.NewClock()
	if members > 1 {
		r.group = core.NewGroup(h, clock, simtime.Default1993(), policy, members)
		r.group.AttachGC(r.gc)
		r.mut = r.group.Members[0]
	} else {
		r.mut = core.NewMutator(h, clock, simtime.Default1993(), policy)
		r.mut.AttachGC(r.gc)
	}
	if tr != nil {
		r.mut.Trace = tr
		h.EpochHook = func(epoch uint32) { tr.LogEpoch(clock.Now(), int64(epoch)) }
		inner.SetTrace(tr)
	}
	return r, nil
}

// collectorAPI is what both collectors offer beyond core.Collector. The
// mutator finds the optional parts by type assertion, so a wrapper that hid
// one would change the run.
type collectorAPI interface {
	core.Collector
	core.EmergencyCollector
	core.OldAllocNoter
	SetTrace(*trace.Recorder)
}

// timedCollector forwards every call to the wrapped collector and records a
// span around the ones that do collection work. It is the only way the
// benchmark times the collector: from outside, at the interface the mutator
// calls it through.
type timedCollector struct {
	inner   collectorAPI
	rec     *recorder
	pacer   core.Pacer         // nil when the collector has no allocation tax
	promote func() *heap.Space // where oversized objects are born
	calls   int                // timed entries into the collector
}

// The optional interfaces the mutator looks for; all four must be forwarded.
var (
	_ core.Pacer                              = (*timedCollector)(nil)
	_ core.EmergencyCollector                 = (*timedCollector)(nil)
	_ core.OldAllocNoter                      = (*timedCollector)(nil)
	_ interface{ PromoteSpace() *heap.Space } = (*timedCollector)(nil)
)

func wrapCollector(inner collectorAPI, h *heap.Heap, rec *recorder) *timedCollector {
	t := &timedCollector{inner: inner, rec: rec, promote: h.OldFrom}
	t.pacer, _ = inner.(core.Pacer)
	if ps, ok := inner.(interface{ PromoteSpace() *heap.Space }); ok {
		t.promote = ps.PromoteSpace
	}
	return t
}

func (t *timedCollector) Name() string               { return t.inner.Name() }
func (t *timedCollector) Stats() *core.GCStats       { return t.inner.Stats() }
func (t *timedCollector) Pauses() *simtime.Recorder  { return t.inner.Pauses() }
func (t *timedCollector) AfterAlloc(m *core.Mutator) { t.inner.AfterAlloc(m) }

func (t *timedCollector) CollectForAlloc(m *core.Mutator, needWords int) error {
	t.calls++
	s := t.rec.begin("collector.pause")
	err := t.inner.CollectForAlloc(m, needWords)
	t.rec.end(s)
	return err
}

func (t *timedCollector) FinishCycles(m *core.Mutator) error {
	t.calls++
	s := t.rec.begin("collector.pause")
	err := t.inner.FinishCycles(m)
	t.rec.end(s)
	return err
}

func (t *timedCollector) CollectEmergency(m *core.Mutator) error {
	t.calls++
	s := t.rec.begin("collector.pause")
	err := t.inner.CollectEmergency(m)
	t.rec.end(s)
	return err
}

// AllocTax runs at the top of every allocation; it is forwarded untimed
// because neither benchmark configuration paces (it returns at once).
func (t *timedCollector) AllocTax(m *core.Mutator, bytes int64) error {
	if t.pacer == nil {
		return nil
	}
	return t.pacer.AllocTax(m, bytes)
}

func (t *timedCollector) PromoteSpace() *heap.Space { return t.promote() }

func (t *timedCollector) NoteOldAlloc(p heap.Value, hdr heap.Header) { t.inner.NoteOldAlloc(p, hdr) }
