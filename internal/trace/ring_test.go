package trace

import (
	"runtime"
	"slices"
	"testing"

	"repligc/internal/simtime"
)

// history is the oracle the ring is held to: everything emitted, of which a
// recorder of the given capacity retains the last capacity events.
type history struct {
	all      []Event
	capacity int
}

func (h *history) len() int       { return min(len(h.all), h.capacity) }
func (h *history) dropped() int64 { return int64(len(h.all) - h.len()) }

func (h *history) events() []Event {
	out := h.all[len(h.all)-h.len():]
	for len(out) > 0 && out[0].Kind == KindPhase {
		out = out[1:]
	}
	return out
}

// TestGrowingRingMatchesFixedRing holds the growing ring to what a ring of
// fixed capacity keeps: it feeds a 3 000-event recorder 10 000 events,
// pauses with up to five phases straddling both growth points and the wrap,
// and compares it with their history after every emit.
func TestGrowingRingMatchesFixedRing(t *testing.T) {
	const capacity = 3000
	r := NewRecorder(capacity)
	want := &history{capacity: capacity}
	var at simtime.Duration
	straddled := map[int]bool{} // ring sizes reached while a pause's phases were being emitted
	emit := func(e Event) {
		before := len(r.buf)
		r.emit(e)
		want.all = append(want.all, e)
		if len(r.buf) != before || r.Dropped() == 1 {
			straddled[len(r.buf)+int(r.Dropped())] = e.Kind == KindPhase
		}
		if cap(r.buf) > capacity {
			t.Fatalf("after %d events the ring holds %d slots, past its capacity %d", at, cap(r.buf), capacity)
		}
		if r.Len() != want.len() || r.Dropped() != want.dropped() || !slices.Equal(r.Events(), want.events()) {
			t.Fatalf("at %d: Len %d, Dropped %d; the history's %d, %d, or their events differ",
				at, r.Len(), r.Dropped(), want.len(), want.dropped())
		}
	}
	for i := 0; at < 10000; i++ {
		phases := i % 6
		emit(Event{At: at, Kind: KindPause, C: int64(phases), A: int64(i)})
		for j := 0; j < phases; j++ {
			emit(Event{At: at, Kind: KindPhase, Phase: simtime.PhaseCopy, C: 1})
			at++
		}
		at++
		emit(Event{At: at, Kind: KindCounters, A: int64(i)})
	}
	if err := Validate(r.Events()); err != nil {
		t.Fatal(err)
	}
	// The pattern must exercise what the test is about: a pause split from
	// its phases by the growth to 2 048 and to 3 000 slots and by the first
	// eviction.
	if !straddled[2048] || !straddled[3000] || !straddled[3001] {
		t.Fatalf("a pause was split by growth to 2048: %v, to 3000: %v, the first eviction: %v",
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
