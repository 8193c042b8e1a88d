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
// record (simtime.Pause, digested by simtime.Digest). A pause is one event
// carrying that record's facts, followed by one event per phase it ran; the
// ring adds what the record does not hold — allocation epochs, barrier
// counters, log epochs — and the Perfetto view of all of it. Analyze rebuilds
// the pause list from the events alone, as the test oracle of the record.
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
	KindPause      Kind = iota // a pause; At=its start, A=bytes copied, B=log entries, C=its length, Phase=its simtime.PauseKind, Cause=its cause
	KindPhase                  // a phase's slice of the pause before it; At=the slice's start, A=the phase's spans, C=its time
	KindAllocEpoch             // allocation milestone; A=cumulative bytes allocated, B=mutator actor
	KindCounters               // barrier snapshot; A=log writes, B=nursery skips, C=dirty skips
	KindLogEpoch               // heap coalescing epoch advanced; A=epoch
	numKinds
)

var kindNames = [numKinds]string{"pause", "phase", "alloc-epoch", "counters", "log-epoch"}

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

// end is when a pause's or a phase's slice ends.
func (e Event) end() simtime.Duration { return e.At + simtime.Duration(e.C) }

// Recorder is a ring buffer of events that starts at 1 024 and doubles as it
// fills, up to its capacity. When that is full, the oldest events are dropped
// (flight-recorder semantics) and the drop is counted; Events drops the
// phases whose pause was evicted. All methods are nil-receiver-safe: a nil
// *Recorder records nothing and allocates nothing, which is how tracing is
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
}

// NewRecorder returns a recorder retaining up to capacity events, and at
// least one.
func NewRecorder(capacity int) *Recorder {
	capacity = max(capacity, 1)
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

// Pause records p, the collector's record of a pause, as the mutator resumes:
// one pause event, then a slice per phase it ran, laid end to end from its
// start in phase order. A pause switches phase as often as its work
// interleaves, so the trace holds one slice a phase, not one a switch.
func (r *Recorder) Pause(p *simtime.Pause) {
	if r == nil {
		return
	}
	r.emit(Event{At: p.At, Kind: KindPause, A: p.CopiedB, B: p.LogProcN, C: int64(p.Length), Phase: simtime.Phase(p.Kind), Cause: p.Cause})
	at := p.At
	for ph, spans := range p.PhaseSpans {
		if spans > 0 {
			r.emit(Event{At: at, Kind: KindPhase, Phase: simtime.Phase(ph), A: int64(spans), C: int64(p.PhaseTime[ph])})
			at += p.PhaseTime[ph]
		}
	}
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

// Events returns the retained events in emission order, without the phases
// of a pause whose event was evicted. A pause's phases are emitted right
// after it, so such phases can only lead the ring: Validate holds on the
// result.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	tail := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[tail:], r.buf[:r.n-tail])
	for len(out) > 0 && out[0].Kind == KindPhase {
		out = out[1:]
	}
	return out
}

// Validate checks that events form a well-formed trace: timestamps
// non-decreasing, every kind known, pauses that do not overlap, and each
// phase a known one lying inside the pause before it, after the phase before
// it. The collectors emit a pause whole when it ends, so this holds even for
// runs that end in a typed OOM — the fault-injection tests pin that property.
func Validate(events []Event) error {
	var last simtime.Duration
	var pause, phase *Event // the last pause, and the last phase since it
	for i := range events {
		e := &events[i]
		if e.At < last {
			return fmt.Errorf("trace: event %d (%s) at %v precedes event %d at %v",
				i, e.Kind, e.At, i-1, last)
		}
		last = e.At
		switch e.Kind {
		case KindPause:
			if e.C < 0 || pause != nil && e.At < pause.end() {
				return fmt.Errorf("trace: event %d: pause at %v for %v has a negative length or overlaps the pause before it",
					i, e.At, simtime.Duration(e.C))
			}
			pause, phase = e, nil
		case KindPhase:
			switch {
			case e.Phase >= simtime.NumPhases:
				return fmt.Errorf("trace: event %d: unknown phase %d", i, e.Phase)
			case pause == nil || e.C < 0 || e.end() > pause.end():
				return fmt.Errorf("trace: event %d: phase %s at %v for %v lies outside the pause before it",
					i, e.Phase, e.At, simtime.Duration(e.C))
			case phase != nil && e.At < phase.end():
				return fmt.Errorf("trace: event %d: phase %s at %v overlaps the phase before it", i, e.Phase, e.At)
			}
			phase = e
		case KindAllocEpoch, KindCounters, KindLogEpoch:
			// Annotations: legal anywhere.
		default:
			return fmt.Errorf("trace: event %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}
