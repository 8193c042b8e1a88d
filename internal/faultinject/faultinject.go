// Package faultinject drives collectors into their failure and degradation
// paths at deterministic points. A Plan is a seeded schedule of adversarial
// events — forced collections, headroom shrinks that make promotion or
// to-space copying overflow mid-cycle, mutation-log spikes, forced
// conservative completion — expressed in the run's own coordinates
// (operation counts), never host time or host randomness, so every failure
// a plan provokes replays identically.
//
// The injector plugs into the gctest shadow-model driver through its Inject
// hook, and into any other workload by calling Tick once per operation.
package faultinject

import (
	"fmt"
	"sort"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/rng"
)

// Action is one kind of injected fault.
type Action int

const (
	// ForceCollect invokes the collector as if an allocation had run out
	// of nursery, forcing a pause at an arbitrary mutator point.
	ForceCollect Action = iota
	// ShrinkOld clamps both old-generation semispaces to their current
	// use plus Arg bytes of slack, so the next promotion or major copy
	// overflows at an adversarial moment.
	ShrinkOld
	// ShrinkNursery clamps the nursery to its current use plus Arg bytes,
	// forcing the expansion-bound path on the next allocation burst.
	ShrinkNursery
	// RestoreHeadroom undoes the shrinks: every space's soft limit is
	// raised back to its hard capacity.
	RestoreHeadroom
	// LogSpike performs Arg logged mutations on an injector-owned object,
	// growing the mutation log without allocating — adversarial input for
	// bounded log processing.
	LogSpike
	// ForceComplete drives all in-flight incremental collections to
	// completion (the conservative, non-incremental ending).
	ForceComplete

	numActions // count sentinel for Adversarial
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ForceCollect:
		return "force-collect"
	case ShrinkOld:
		return "shrink-old"
	case ShrinkNursery:
		return "shrink-nursery"
	case RestoreHeadroom:
		return "restore-headroom"
	case LogSpike:
		return "log-spike"
	case ForceComplete:
		return "force-complete"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Event schedules one fault at a deterministic point.
type Event struct {
	// AtOp fires the event when the injector's operation counter (one per
	// Tick) reaches this value; events at the same op fire in plan order.
	AtOp int64
	// Action selects the fault.
	Action Action
	// Arg is action-specific: bytes of residual slack for the shrink
	// actions, number of mutations for LogSpike; ignored otherwise.
	Arg int64
}

// Plan is a deterministic fault schedule.
type Plan struct {
	// Every, when positive, forces a collection on every Every-th Tick —
	// the "collect at every Kth allocation" torture mode.
	Every int64
	// Events fire when the operation counter reaches each AtOp; they must
	// be sorted by AtOp (Adversarial returns them sorted).
	Events []Event
}

// Adversarial builds a seeded plan of n events spread over spanOps
// operations, mixing every action. Shrink slacks are small (0–8 KB) so the
// plan reliably provokes overflow on small test heaps; the same seed always
// yields the same plan. The draws come from the shared rng splitmix64
// stream (the regression test pins the plans bit-identical to the sequence
// this package produced before the generator was extracted).
func Adversarial(seed uint64, n int, spanOps int64) Plan {
	if spanOps < 1 {
		spanOps = 1
	}
	s := rng.New(seed)
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev := Event{
			AtOp:   int64(s.Uint64n(uint64(spanOps))) + 1,
			Action: Action(s.Uint64n(uint64(numActions))),
		}
		switch ev.Action {
		case ShrinkOld, ShrinkNursery:
			ev.Arg = int64(s.Uint64n(8 << 10))
		case LogSpike:
			ev.Arg = int64(s.Uint64n(512)) + 32
		}
		evs = append(evs, ev)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtOp < evs[j].AtOp })
	return Plan{Events: evs}
}

// Injector applies a Plan to a running mutator. It registers itself as a
// root source (the LogSpike target object must stay live).
type Injector struct {
	M    *core.Mutator
	plan Plan

	ops   int64
	next  int        // cursor into plan.Events
	spike heap.Value // LogSpike's mutation target

	// Injected counts events applied so far.
	Injected int
}

// New attaches a plan to m.
func New(m *core.Mutator, plan Plan) *Injector {
	in := &Injector{M: m, plan: plan}
	m.Roots.Register(in)
	return in
}

// VisitRoots exposes the injector's one heap pointer.
func (in *Injector) VisitRoots(v core.RootVisitor) { v(&in.spike) }

// Tick advances the operation counter and applies every due event. It
// returns the first error an injected fault provoked — always the typed
// *core.OOMError when the fault exhausted the heap.
func (in *Injector) Tick() error {
	in.ops++
	if in.plan.Every > 0 && in.ops%in.plan.Every == 0 {
		if err := in.apply(Event{Action: ForceCollect}); err != nil {
			return err
		}
	}
	for in.next < len(in.plan.Events) && in.plan.Events[in.next].AtOp <= in.ops {
		ev := in.plan.Events[in.next]
		in.next++
		if err := in.apply(ev); err != nil {
			return err
		}
	}
	return nil
}

func (in *Injector) apply(ev Event) error {
	in.Injected++
	m := in.M
	h := m.H
	switch ev.Action {
	case ForceCollect:
		return m.GC.CollectForAlloc(m, 0)
	case ShrinkOld:
		h.OldFrom().SetLimitBytes(h.OldFrom().UsedBytes() + ev.Arg)
		h.OldTo().SetLimitBytes(h.OldTo().UsedBytes() + ev.Arg)
		return nil
	case ShrinkNursery:
		h.Nursery.SetLimitBytes(h.Nursery.UsedBytes() + ev.Arg)
		return nil
	case RestoreHeadroom:
		for _, s := range []*heap.Space{&h.Nursery, h.OldFrom(), h.OldTo()} {
			s.SetLimitBytes(int64(s.Cap-s.Lo) * heap.BytesPerWord)
		}
		return nil
	case LogSpike:
		if in.spike == heap.Nil {
			p, err := m.Alloc(heap.KindArray, 8)
			if err != nil {
				return err
			}
			in.spike = p
		}
		n := ev.Arg
		if n <= 0 {
			n = 64
		}
		for i := int64(0); i < n; i++ {
			m.Set(in.spike, int(i%8), heap.FromInt(i))
		}
		return nil
	case ForceComplete:
		return m.GC.FinishCycles(m)
	}
	return fmt.Errorf("faultinject: unknown action %v", ev.Action)
}

// CrashTarget selects which section of a checkpoint epoch's file a crash
// plan damages.
type CrashTarget int

const (
	// CrashSnapshot damages the image section: the magic, the header and
	// the snapshot segments.
	CrashSnapshot CrashTarget = iota
	// CrashWAL damages the commit section: the patches, retained log,
	// roots, scheduling state and commit record that follow the image.
	CrashWAL

	numCrashTargets
)

// String names the target.
func (t CrashTarget) String() string {
	switch t {
	case CrashSnapshot:
		return "snapshot"
	case CrashWAL:
		return "wal"
	}
	return fmt.Sprintf("CrashTarget(%d)", int(t))
}

// CrashKind selects how the targeted file is damaged — the three failure
// modes a real kill-at-byte-k crash (or a torn sector) leaves behind.
type CrashKind int

const (
	// CrashTruncate cuts the file at a fractional offset, as if the
	// process was killed mid-write at byte k.
	CrashTruncate CrashKind = iota
	// CrashTornWord flips bits inside one aligned word at a fractional
	// offset: a torn or misdirected sector write.
	CrashTornWord
	// CrashDuplicateRecord appends a copy of an interior byte range, the
	// classic doubled-record artifact of a replayed buffer flush.
	CrashDuplicateRecord

	numCrashKinds
)

// String names the kind.
func (k CrashKind) String() string {
	switch k {
	case CrashTruncate:
		return "truncate"
	case CrashTornWord:
		return "torn-word"
	case CrashDuplicateRecord:
		return "duplicate-record"
	}
	return fmt.Sprintf("CrashKind(%d)", int(k))
}

// CrashPlan is one deterministic crash site: which section, what damage,
// and where within the section (as a fraction, so one plan scales to any
// section size). Mask seeds the torn-word bit flip; it is never zero. The plan is
// pure data — internal/checkpoint applies it to files, keeping this package
// free of I/O.
type CrashPlan struct {
	Target   CrashTarget
	Kind     CrashKind
	Fraction float64 // damage site as a fraction of the section's size, in [0, 1)
	Mask     uint64  // torn-word XOR pattern
}

// String renders the plan compactly for matrix reports.
func (p CrashPlan) String() string {
	return fmt.Sprintf("%s/%s@%.3f", p.Target, p.Kind, p.Fraction)
}

// CrashPlans builds n seeded crash sites covering every target × kind
// combination before repeating, with seeded fractional offsets. The same
// seed always yields the same plans.
func CrashPlans(seed uint64, n int) []CrashPlan {
	s := rng.New(seed)
	out := make([]CrashPlan, 0, n)
	for i := 0; i < n; i++ {
		p := CrashPlan{
			Target:   CrashTarget(i % int(numCrashTargets)),
			Kind:     CrashKind((i / int(numCrashTargets)) % int(numCrashKinds)),
			Fraction: float64(s.Uint64n(1000)) / 1000,
			Mask:     s.Next() | 1, // never zero: always flips at least one bit
		}
		out = append(out, p)
	}
	return out
}
