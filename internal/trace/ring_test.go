package trace

import (
	"runtime"
	"slices"
	"testing"

	"repligc/internal/simtime"
)

// fixedRing is the recorder as it was when NewRecorder allocated the whole
// ring up front: the oracle the growing ring is held to.
type fixedRing struct {
	buf            []Event
	start, n       int
	dropped        int64
	evictedInPause bool
}

func (r *fixedRing) emit(e Event) {
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

func (r *fixedRing) events() []Event {
	if r.n == 0 {
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

// TestGrowingRingMatchesFixedRing feeds a 3 000-event recorder and the fixed
// ring 10 000 events, pauses of varying length straddling both growth points
// and the wrap, and compares them after every emit.
func TestGrowingRingMatchesFixedRing(t *testing.T) {
	const capacity = 3000
	r := NewRecorder(capacity)
	want := &fixedRing{buf: make([]Event, capacity)}
	var at simtime.Duration
	inPause := false
	straddled := map[int]bool{} // ring sizes a pause was open across
	emit := func(e Event) {
		at++
		e.At = at
		before := len(r.buf)
		r.emit(e)
		want.emit(e)
		if len(r.buf) != before || r.Dropped() == 1 {
			straddled[len(r.buf)+int(r.Dropped())] = inPause
		}
		inPause = e.Kind == KindPauseBegin || (inPause && e.Kind != KindPauseEnd)
		if cap(r.buf) > capacity {
			t.Fatalf("after %d events the ring holds %d slots, past its capacity %d", at, cap(r.buf), capacity)
		}
		if r.Len() != want.n || r.Dropped() != want.dropped || !slices.Equal(r.Events(), want.events()) {
			t.Fatalf("after %d events: Len %d, Dropped %d; the fixed ring's %d, %d, or their events differ",
				at, r.Len(), r.Dropped(), want.n, want.dropped)
		}
	}
	for i := 0; at < 10000; i++ {
		emit(Event{Kind: KindPauseBegin})
		for j := 0; j < i%7; j++ {
			emit(Event{Kind: KindPhaseBegin, Phase: simtime.PhaseCopy})
			emit(Event{Kind: KindAllocEpoch, A: int64(j)})
			emit(Event{Kind: KindPhaseEnd, Phase: simtime.PhaseCopy})
		}
		emit(Event{Kind: KindPauseEnd, A: int64(i)})
		emit(Event{Kind: KindCounters, A: int64(i)})
	}
	if err := Validate(r.Events()); err != nil {
		t.Fatal(err)
	}
	// The pattern must exercise what the test is about: a pause open across
	// the growth to 2 048 and to 3 000 slots and across the first eviction.
	if !straddled[2048] || !straddled[3000] || !straddled[3001] {
		t.Fatalf("a pause was open across growth to 2048: %v, to 3000: %v, the first eviction: %v",
			straddled[2048], straddled[3000], straddled[3001])
	}
}

// TestRecorderGrowsWithUse: a recorder's capacity is a bound, not an
// allocation. A 1<<20-event recorder that records 1 000 events costs what
// those events need, not the 40 MiB its capacity would.
func TestRecorderGrowsWithUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(1 << 20)
	for i := 0; i < 1000; i++ {
		r.AllocEpoch(simtime.Duration(i), 0, int64(i))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a recorder of 1000 events allocated %d bytes, want under 1 MiB", grew)
	}
	if r.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", r.Len())
	}
}
