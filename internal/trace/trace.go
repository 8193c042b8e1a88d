// Package trace is the collector's observability subsystem: a low-overhead
// event recorder plus the analysis and export layers built on it. The
// replication collector's whole claim is about pause *behaviour* — not just
// how long pauses are, but where each pause went (root scan vs log replay vs
// copy increment vs flip) and whether the mutator keeps up a utilization
// target over every window of simulated time.
//
// The recorder is a bounded ring buffer of small typed events stamped with
// simulated time, grown to what it records. Every emit method is safe on a
// nil *Recorder and returns after a single comparison, so hook points stay
// wired permanently in the collectors and cost nothing when tracing is
// disabled — in particular the write-barrier fast paths remain
// allocation-free. Events charge nothing to the simulated clock, so an
// instrumented run is bit-for-bit identical to an uninstrumented one.
//
// The recorder is an optional exporter, attached when a Chrome trace file is
// asked for. What a pause cost and where the time went is the collector's own
// record (simtime.Pause, digested by simtime.Digest); the ring adds what that
// record does not hold — allocation epochs, barrier counters, log epochs — and
// the Perfetto view of all of it. Analyze rebuilds the pause list from the
// events alone, as the test oracle of the record.
//
// All timestamps are simtime.Duration. The wall clock never appears here
// (gclint rule "wallclock"); exporter glue in cmd/ may stamp artifacts with
// wall-clock metadata, but nothing in the event model depends on it.
package trace

import (
	"fmt"

	"repligc/internal/simtime"
)

// Kind classifies an event.
type Kind uint8

// The event kinds.
const (
	KindPauseBegin Kind = iota // mutator stopped
	KindPauseEnd               // mutator resumed; A=bytes copied, B=log entries, C=pause kind, Cause=its cause
	KindPhaseBegin             // a phase's slice of a pause begins
	KindPhaseEnd               // it ends; A=the spans of the phase the pause ran
	KindAllocEpoch             // allocation milestone; A=cumulative bytes allocated, B=mutator actor
	KindCounters               // barrier snapshot; A=log writes, B=nursery skips, C=dirty skips
	KindLogEpoch               // heap coalescing epoch advanced; A=epoch
	numKinds
)

var kindNames = [numKinds]string{
	"pause-begin", "pause-end", "phase-begin", "phase-end",
	"alloc-epoch", "counters", "log-epoch",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence. The payload words A, B, C are
// kind-specific (see the Kind constants), as are Phase and Cause, which sit in
// what would be the struct's padding: an event is 40 bytes.
type Event struct {
	At      simtime.Duration
	A, B, C int64
	Kind    Kind
	Phase   simtime.Phase
	Cause   simtime.Cause
}

// DefaultCapacity is the ring size NewRecorder uses for capacity <= 0.
const DefaultCapacity = 1 << 16

// Recorder is a ring buffer of events that starts at 1 024 and doubles as it
// fills, up to its capacity. When that is full, the oldest events are dropped
// (flight-recorder semantics) and the drop is counted; Events re-synchronizes
// to a structurally consistent suffix. All methods are nil-receiver-safe: a
// nil *Recorder records nothing and allocates nothing, which is how tracing is
// disabled.
//
// The recorder is not safe for concurrent use; the simulation is
// single-threaded by design.
type Recorder struct {
	buf     []Event
	limit   int // the capacity buf grows to
	start   int // index of the oldest retained event
	n       int // number of retained events
	dropped int64

	// evictedInPause tracks whether the oldest *retained* event sits inside
	// a pause whose begin was evicted, so Events can trim to a balanced
	// suffix after drops.
	evictedInPause bool
}

// NewRecorder returns a recorder retaining up to capacity events
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, min(capacity, 1<<10)), limit: capacity}
}

// emit appends e, growing the ring below its capacity, evicting at it.
func (r *Recorder) emit(e Event) {
	if r == nil {
		return
	}
	if r.n == len(r.buf) && r.n < r.limit { // nothing evicted yet: the events start at 0
		buf := make([]Event, min(2*r.n, r.limit))
		copy(buf, r.buf)
		r.buf = buf
	}
	if r.n == len(r.buf) {
		old := r.buf[r.start]
		switch old.Kind {
		case KindPauseBegin:
			r.evictedInPause = true
		case KindPauseEnd:
			r.evictedInPause = false
		}
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		r.n--
		r.dropped++
	}
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

// PauseBegin records the mutator stopping at time at.
func (r *Recorder) PauseBegin(at simtime.Duration) {
	r.emit(Event{At: at, Kind: KindPauseBegin})
}

// PauseEnd records the mutator resuming after p, the collector's record of the
// pause: a slice per phase it ran, laid end to end from its start in phase
// order, then its end. A pause switches phase as often as its work interleaves,
// so the trace holds one slice a phase, not one a switch.
func (r *Recorder) PauseEnd(p *simtime.Pause) {
	if r == nil {
		return
	}
	at := p.At
	for ph, spans := range p.PhaseSpans {
		if spans > 0 {
			r.emit(Event{At: at, Kind: KindPhaseBegin, Phase: simtime.Phase(ph)})
			at += p.PhaseTime[ph]
			r.emit(Event{At: at, Kind: KindPhaseEnd, Phase: simtime.Phase(ph), A: int64(spans)})
		}
	}
	r.emit(Event{At: p.At + p.Length, Kind: KindPauseEnd, A: p.CopiedB, B: p.LogProcN, C: int64(p.Kind), Cause: p.Cause})
}

// AllocEpoch records an allocation milestone: cumulative bytes allocated by
// the given mutator actor (its index in the group). Per-actor stamping
// keeps the allocation timelines of a multi-mutator group separable in
// exports.
func (r *Recorder) AllocEpoch(at simtime.Duration, actor, bytesAllocated int64) {
	r.emit(Event{At: at, Kind: KindAllocEpoch, A: bytesAllocated, B: actor})
}

// Counters records a barrier-counter snapshot (cumulative log writes,
// nursery fast-path skips, dirty-stamp skips).
func (r *Recorder) Counters(at simtime.Duration, logWrites, nurserySkips, dirtySkips int64) {
	r.emit(Event{At: at, Kind: KindCounters, A: logWrites, B: nurserySkips, C: dirtySkips})
}

// LogEpoch records the heap advancing its log-coalescing epoch.
func (r *Recorder) LogEpoch(at simtime.Duration, epoch int64) {
	r.emit(Event{At: at, Kind: KindLogEpoch, A: epoch})
}

// Dropped reports how many events were evicted because the ring filled.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Events returns the retained events in emission order. After drops the
// returned slice is trimmed to a structurally consistent suffix: if the
// oldest retained event sits inside a pause whose begin was evicted,
// everything through that pause's end is discarded too, so Validate holds
// on the result.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	tail := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[tail:], r.buf[:r.n-tail])
	if r.dropped > 0 && r.evictedInPause {
		cut := len(out)
		for i, e := range out {
			if e.Kind == KindPauseEnd {
				cut = i + 1
				break
			}
		}
		out = out[cut:]
	}
	return out
}

// Validate checks that events form a well-formed trace: timestamps
// non-decreasing; pause begin/end strictly alternating (pauses never nest);
// phases flat (at most one open, begin/end balanced, matching phases) and
// only inside pauses; everything closed at the end. The collectors' hook
// discipline guarantees this even for runs that end in a typed OOM — the
// fault-injection tests pin that property.
func Validate(events []Event) error {
	var (
		last      simtime.Duration
		inPause   bool
		openPhase simtime.Phase
		phaseOpen bool
	)
	for i, e := range events {
		if e.At < last {
			return fmt.Errorf("trace: event %d (%s) at %v precedes event %d at %v",
				i, e.Kind, e.At, i-1, last)
		}
		last = e.At
		switch e.Kind {
		case KindPauseBegin:
			if inPause {
				return fmt.Errorf("trace: event %d: pause-begin inside an open pause", i)
			}
			inPause = true
		case KindPauseEnd:
			if !inPause {
				return fmt.Errorf("trace: event %d: pause-end without an open pause", i)
			}
			if phaseOpen {
				return fmt.Errorf("trace: event %d: pause-end with phase %s still open", i, openPhase)
			}
			inPause = false
		case KindPhaseBegin:
			if !inPause {
				return fmt.Errorf("trace: event %d: phase %s begun outside a pause", i, e.Phase)
			}
			if phaseOpen {
				return fmt.Errorf("trace: event %d: phase %s begun while %s is open (phases must not overlap)",
					i, e.Phase, openPhase)
			}
			if e.Phase >= simtime.NumPhases {
				return fmt.Errorf("trace: event %d: unknown phase %d", i, e.Phase)
			}
			phaseOpen, openPhase = true, e.Phase
		case KindPhaseEnd:
			if !phaseOpen {
				return fmt.Errorf("trace: event %d: phase %s ended without a begin", i, e.Phase)
			}
			if e.Phase != openPhase {
				return fmt.Errorf("trace: event %d: phase-end %s does not match open phase %s",
					i, e.Phase, openPhase)
			}
			phaseOpen = false
		case KindAllocEpoch, KindCounters, KindLogEpoch:
			// Annotations: legal anywhere.
		default:
			return fmt.Errorf("trace: event %d: unknown kind %d", i, e.Kind)
		}
	}
	if phaseOpen {
		return fmt.Errorf("trace: phase %s still open at end of trace", openPhase)
	}
	if inPause {
		return fmt.Errorf("trace: pause still open at end of trace")
	}
	return nil
}
