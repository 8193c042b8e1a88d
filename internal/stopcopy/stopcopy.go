// Package stopcopy is the baseline: a classical two-generation
// stop-and-copy collector in the style of the original SML/NJ collector the
// paper compares against. It forwards destructively while the mutator is
// stopped, consumes the storelist as its remembered set, and updates
// referring slots immediately — there is no replica consistency machinery,
// no reapply cost and no separate flip traversal. It is implemented
// independently of the replication collector so the two can be checked
// against each other (differential testing) as well as benchmarked.
package stopcopy

import (
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// Config parameterises the baseline collector.
type Config struct {
	// NurseryBytes is the paper's N.
	NurseryBytes int64
	// MajorThresholdBytes is the paper's O; zero disables major
	// collections.
	MajorThresholdBytes int64
	// Replay, when non-nil, drives collection points from a recorded
	// script instead of N and O (the paper's §4.2 methodology).
	Replay *policy.Script
}

// Collector is the stop-and-copy baseline.
type Collector struct {
	cfg    Config
	h      *heap.Heap
	stats  core.GCStats
	pauses core.PauseBracket

	//gclint:pauseonly the log cursor only advances while the mutator is stopped; the barrier appends ahead of it
	logCursor          int64
	promotedSinceMajor int64
	//gclint:pauseonly Cheney cursor; stop-and-copy scans run to completion inside a single pause
	scan uint64 // shared Cheney cursor for the current collection

	replay *policy.Cursor
	//gclint:pauseonly replay decisions are consumed at pause time, when the next collection's kind is chosen
	forcedMajor bool

	// Degradation-ladder state. promoHighWater is the largest volume one
	// minor collection has promoted; when old-space headroom falls below
	// the nursery contents plus this reserve, the next pause runs a major
	// regardless of the threshold O. wedged records a mid-collection
	// overflow: stop-and-copy forwarding is destructive and a partially
	// copied collection cannot be resumed, so the collector fails every
	// subsequent request with the same typed error rather than corrupt
	// the heap (which stays auditable — originals keep their payloads and
	// forwarding words are legal mid-collection).
	//gclint:pauseonly the high-water mark is raised at the end of a minor collection, before the mutator resumes
	promoHighWater int64
	//gclint:pauseonly wedging is detected mid-collection; once set it is only read (every request fails fast)
	wedged *core.OOMError
}

// New builds the baseline collector over h.
func New(h *heap.Heap, cfg Config) *Collector {
	c := &Collector{cfg: cfg, h: h}
	c.pauses = core.NewPauseBracket(&c.stats)
	h.Nursery.SetLimitBytes(cfg.NurseryBytes)
	if cfg.Replay != nil {
		c.replay = policy.NewCursor(cfg.Replay)
		if d, ok := c.replay.NurseryDelta(0); ok {
			h.Nursery.SetLimitBytes(d)
		}
	}
	return c
}

// Name implements core.Collector.
func (c *Collector) Name() string { return "stop-copy" }

// Stats implements core.Collector.
func (c *Collector) Stats() *core.GCStats { return &c.stats }

// Pauses implements core.Collector.
func (c *Collector) Pauses() *simtime.Recorder { return &c.pauses.Rec }

// SetTrace attaches an event recorder; nil detaches it.
func (c *Collector) SetTrace(r *trace.Recorder) { c.pauses.Trace = r }

// AfterAlloc implements core.Collector; collection points are steered by
// nursery limits, so nothing happens here.
func (c *Collector) AfterAlloc(m *core.Mutator) {}

// NoteOldAlloc implements core.OldAllocNoter for oversized allocations.
func (c *Collector) NoteOldAlloc(p heap.Value, hdr heap.Header) {
	c.promotedSinceMajor += hdr.SizeBytes()
}

// FinishCycles implements core.Collector; stop-and-copy collections always
// complete within their pause, so there is nothing to finish — unless a
// prior collection wedged, which stays reportable here.
func (c *Collector) FinishCycles(m *core.Mutator) error {
	if c.wedged != nil {
		return c.wedged
	}
	return nil
}

// CollectForAlloc implements core.Collector: one stop-the-world pause
// containing a minor collection and, when the promotion threshold (or the
// replay script) says so, a major collection. Minor+major happen under a
// single pause, which is exactly what produces the long baseline pauses of
// the paper's figure 6.
func (c *Collector) CollectForAlloc(m *core.Mutator, needWords int) error {
	return c.pause(m, false)
}

// CollectEmergency implements core.EmergencyCollector: a stop-the-world
// pause with a forced major collection, compacting the old generation so a
// failed direct allocation can retry.
func (c *Collector) CollectEmergency(m *core.Mutator) error {
	c.stats.EmergencyCollections++
	return c.pause(m, true)
}

// pause runs one stop-the-world collection. The pause is charged and
// recorded even when it ends in a typed exhaustion error, so degraded runs
// report honest long pauses.
//
//gclint:pauseentry Clock.BeginPause stops the (single) mutator before any collection work; CollectForAlloc/CollectEmergency both funnel through here
func (c *Collector) pause(m *core.Mutator, emergency bool) error {
	if c.wedged != nil {
		return c.wedged
	}
	c.pauses.Begin(m)
	// The pause consumes the mutation log (it is this collector's
	// remembered set), so barrier coalescing marks must expire here —
	// same contract as the replicating collector (heap/stamp.go).
	c.h.BeginLogEpoch()

	// Degradation ladder, headroom reservation: when the old space cannot
	// absorb a worst-case minor collection (the whole nursery) plus the
	// recorded high-water mark as reserve, run a major this pause even if
	// the threshold O has not been crossed.
	free := int64(c.h.OldFrom().FreeWords()) * heap.BytesPerWord
	lowHeadroom := free < c.h.Nursery.UsedBytes()+c.promoHighWater
	if lowHeadroom && !emergency {
		c.stats.EmergencyCollections++
		c.stats.ForcedCompletion++
	}
	if emergency || lowHeadroom {
		c.pauses.Phase(m, simtime.PhaseEmergency)() // a span of no length marks the rung
	}

	kind := simtime.PauseMinor
	err := c.minorCollect(m)

	if err == nil {
		major := c.cfg.MajorThresholdBytes > 0 && c.promotedSinceMajor >= c.cfg.MajorThresholdBytes
		if c.replay != nil {
			major = c.forcedMajor
		}
		if emergency || lowHeadroom {
			major = true
		}
		if major {
			kind = simtime.PauseMajor
			err = c.majorCollect(m)
		}
	}
	if err != nil {
		c.wedged, _ = core.AsOOM(err)
	}

	// Destructive forwarding leaves no from-space originals for other
	// mutators to run against, and nothing bounds a collection: the whole
	// pause is stop-the-world, with no budget.
	c.pauses.End(m, kind, true)
	return err
}

// forward destructively copies the object at v into dst (unless already
// forwarded) and returns the to-space address. Overflow surfaces as a
// typed *core.OOMError with v left unforwarded.
func (c *Collector) forward(m *core.Mutator, v heap.Value, dst *heap.Space, acct simtime.Account, copied *int64) (heap.Value, error) {
	h := c.h
	if h.IsForwarded(v) {
		return h.ForwardAddr(v), nil
	}
	hdr := heap.Header(h.RawHeader(v))
	replica, ok := h.CopyObject(v, dst)
	if !ok {
		res := core.OOMPromotion
		if dst == h.OldTo() {
			res = core.OOMToSpace
		}
		return heap.Nil, &core.OOMError{
			Resource:  res,
			Collector: c.Name(),
			Space:     dst.Name,
			Request:   hdr.SizeBytes(),
			Free:      int64(dst.FreeWords()) * heap.BytesPerWord,
			Limit:     dst.LimitBytes(),
			Degraded:  true, // stop-and-copy has no smaller increment to fall back to
		}
	}
	h.SetForward(v, replica)
	*copied += hdr.SizeBytes()
	m.Clock.Charge(acct, simtime.Duration(hdr.SizeWords())*m.Cost.CopyWord)
	return replica, nil
}

// minorCollect copies live nursery data into the old generation. On a
// typed overflow error the nursery is NOT reset: every original keeps its
// payload and the heap stays auditable (the collector wedges — see pause).
func (c *Collector) minorCollect(m *core.Mutator) error {
	h := c.h
	from := &h.Nursery
	to := h.OldFrom()
	c.scan = to.Next
	copiedBefore := c.stats.BytesCopiedMinor

	// Remembered set: logged old-space slots holding nursery pointers are
	// updated in place as they are processed — no flip traversal.
	endPhase := c.pauses.Phase(m, simtime.PhaseLogReplay)
	for c.logCursor < m.Log.Len() {
		e := m.Log.At(c.logCursor)
		c.logCursor++
		c.stats.LogScanned++
		m.Clock.Charge(simtime.AcctLogScan, m.Cost.LogScan)
		if e.Byte || !to.Contains(e.Obj) {
			continue
		}
		v := h.Load(e.Obj, int(e.Slot))
		if from.Contains(v) {
			nv, err := c.forward(m, v, to, simtime.AcctMinorCopy, &c.stats.BytesCopiedMinor)
			if err != nil {
				endPhase()
				return err
			}
			h.Store(e.Obj, int(e.Slot), nv)
		}
	}
	endPhase()

	if err := c.scanRoots(m, from, to, simtime.AcctMinorCopy, &c.stats.BytesCopiedMinor); err != nil {
		return err
	}

	// Cheney scan of the promotion region.
	endPhase = c.pauses.Phase(m, simtime.PhaseCopy)
	err := c.cheney(m, from, to, simtime.AcctMinorCopy, &c.stats.BytesCopiedMinor)
	endPhase()
	if err != nil {
		return err
	}

	promoted := c.stats.BytesCopiedMinor - copiedBefore
	c.promotedSinceMajor += promoted
	if promoted > c.promoHighWater {
		c.promoHighWater = promoted // feeds the headroom reservation
	}

	h.Nursery.Reset()
	c.stats.MinorCollections++
	c.stats.FlipCopied = append(c.stats.FlipCopied, c.stats.TotalBytesCopied())
	m.Log.TrimTo(m.Log.Len())
	c.logCursor = m.Log.Len()
	c.setNextNurseryLimit(m)
	return nil
}

// scanRoots forwards every root referent in from to to and updates the slot.
func (c *Collector) scanRoots(m *core.Mutator, from, to *heap.Space, acct simtime.Account, copied *int64) error {
	defer c.pauses.Phase(m, simtime.PhaseRootScan)()
	roots := m.Roots.Slots()
	c.stats.RootSlotUpdates += int64(len(roots))
	m.Clock.Charge(simtime.AcctRootScan, simtime.Duration(len(roots))*m.Cost.RootUpdate)
	for _, slot := range roots {
		if v := *slot; from.Contains(v) {
			nv, err := c.forward(m, v, to, acct, copied)
			if err != nil {
				return err
			}
			*slot = nv
		}
	}
	return nil
}

// cheney scans to-space from c.scan, forwarding every from-space referent.
func (c *Collector) cheney(m *core.Mutator, from, to *heap.Space, acct simtime.Account, copied *int64) error {
	h := c.h
	for c.scan < to.Next {
		w := h.Word(c.scan)
		if !heap.IsHeader(w) {
			//gclint:allow panicpath -- invariant: to-space holds replicas, which are never forwarded
			panic("stopcopy: scan hit forwarded object in to-space")
		}
		hdr := heap.Header(w)
		p := heap.Value((c.scan + 1) << 3)
		m.Clock.Charge(acct, simtime.Duration(hdr.SizeWords())*m.Cost.ScanWord)
		if hdr.Kind().HasPointers() {
			for i := 0; i < hdr.Len(); i++ {
				v := h.Load(p, i)
				if from.Contains(v) {
					nv, err := c.forward(m, v, to, acct, copied)
					if err != nil {
						return err
					}
					h.Store(p, i, nv)
				}
			}
		}
		c.scan += uint64(hdr.SizeWords())
	}
	return nil
}

// majorCollect copies all live old-generation data into the reserve
// semispace and swaps. It runs right after a minor collection, so the
// nursery is empty and the mutator roots are the only root set.
func (c *Collector) majorCollect(m *core.Mutator) error {
	h := c.h
	if h.Nursery.UsedWords() != 0 {
		//gclint:allow panicpath -- invariant: majors only run right after a minor emptied the nursery
		panic("stopcopy: major collection with non-empty nursery")
	}
	from := h.OldFrom()
	to := h.OldTo()
	c.scan = to.Next

	if err := c.scanRoots(m, from, to, simtime.AcctMajorCopy, &c.stats.BytesCopiedMajor); err != nil {
		return err
	}

	endPhase := c.pauses.Phase(m, simtime.PhaseCopy)
	err := c.cheney(m, from, to, simtime.AcctMajorCopy, &c.stats.BytesCopiedMajor)
	endPhase()
	if err != nil {
		return err
	}

	h.SwapOld()
	c.promotedSinceMajor = 0
	c.stats.MajorCollections++
	c.forcedMajor = false
	return nil
}

// setNextNurseryLimit applies the configured N or the replayed delta.
func (c *Collector) setNextNurseryLimit(m *core.Mutator) {
	limit := c.cfg.NurseryBytes
	if c.replay != nil {
		if ev, ok := c.replay.Next(); ok {
			c.forcedMajor = ev.MajorFlip
			if d, ok := c.replay.NurseryDelta(m.BytesAllocated); ok {
				limit = d
			}
		}
	}
	const floor = 64 << 10
	c.h.Nursery.SetLimitBytes(max(limit, floor))
}
