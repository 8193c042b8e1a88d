package trace_test

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"repligc/internal/simtime"
	"repligc/internal/trace"
)

const ms = simtime.Millisecond

// mkPause appends one [start, end) pause to events.
func mkPause(events []trace.Event, start, end simtime.Duration) []trace.Event {
	return append(events, trace.Event{At: start, Kind: trace.KindPause, C: int64(end - start)})
}

// copyPause is a pause of length n that ran one copy span, ending at At+n.
func copyPause(at, n simtime.Duration) *simtime.Pause {
	p := &simtime.Pause{At: at, Length: n, CopiedB: 1, LogProcN: 2}
	p.PhaseTime[simtime.PhaseCopy], p.PhaseSpans[simtime.PhaseCopy] = n, 1
	return p
}

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *trace.Recorder
	p := copyPause(0, 1)
	allocs := testing.AllocsPerRun(100, func() {
		r.Pause(p)
		r.AllocEpoch(5, 0, 6)
		r.Counters(7, 8, 9, 10)
		r.LogEpoch(11, 12)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.0f times per emit round, want 0", allocs)
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder reported retained state")
	}
}

func TestLiveRecorderEmitsWithoutAllocating(t *testing.T) {
	r := trace.NewRecorder(16) // small: rounds will wrap and evict
	p := copyPause(0, 1)
	allocs := testing.AllocsPerRun(100, func() {
		r.Pause(p)
		p.At += 2
	})
	if allocs != 0 {
		t.Fatalf("recorder allocated %.0f times per emit round after construction, want 0", allocs)
	}
}

func TestRingDropsOldestAndStaysConsistent(t *testing.T) {
	r := trace.NewRecorder(8)
	var at simtime.Duration
	for i := 0; i < 10; i++ {
		r.Pause(copyPause(at, 2))
		at += 4
	}
	if r.Dropped() == 0 {
		t.Fatal("20 events into an 8-slot ring dropped nothing")
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	evs := r.Events()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("retained suffix is not well-formed: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("no events retained")
	}
}

// TestRingTrimsEvictedPause covers the flight-recorder edge: when a pause's
// event is evicted while its phases survive, Events drops those phases, and
// only those, so the suffix still validates.
func TestRingTrimsEvictedPause(t *testing.T) {
	p := &simtime.Pause{At: 0, Length: 7}
	for ph := range simtime.Phase(3) {
		p.PhaseTime[ph], p.PhaseSpans[ph] = 2, 1
	}
	r := trace.NewRecorder(3)
	r.Pause(p) // four events: the pause is evicted, its three phases stay
	if evs := r.Events(); r.Len() != 3 || len(evs) != 0 {
		t.Fatalf("a ring of three phases without their pause returned %v", evs)
	}
	r.AllocEpoch(8, 0, 1)
	r.Counters(9, 1, 2, 3)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != trace.KindAllocEpoch || evs[1].Kind != trace.KindCounters {
		t.Fatalf("after the phases, the ring returned %v, want its two annotations", evs)
	}
	if err := trace.Validate(evs); err != nil {
		t.Fatal(err)
	}
}

// TestNewRecorderHoldsAtLeastOneEvent: a capacity below one is a ring of
// one, not a recorder that panics at its first emit.
func TestNewRecorderHoldsAtLeastOneEvent(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		r := trace.NewRecorder(capacity)
		for at := range simtime.Duration(3) {
			r.LogEpoch(at, int64(at))
		}
		if evs := r.Events(); r.Len() != 1 || r.Dropped() != 2 || len(evs) != 1 || evs[0].A != 2 {
			t.Fatalf("NewRecorder(%d) after three events: Len %d, Dropped %d, events %v; want the last one",
				capacity, r.Len(), r.Dropped(), evs)
		}
	}
}

func TestValidateRejectsMalformedTraces(t *testing.T) {
	pause := trace.Event{At: 0, Kind: trace.KindPause, C: 4}
	cases := []struct {
		name string
		evs  []trace.Event
		want string
	}{
		{"time-regression", []trace.Event{
			{At: 5, Kind: trace.KindAllocEpoch}, {At: 4, Kind: trace.KindAllocEpoch},
		}, "precedes"},
		{"nested-pause", []trace.Event{pause, {At: 3, Kind: trace.KindPause, C: 1}}, "overlaps the pause before it"},
		{"negative-pause", []trace.Event{{At: 0, Kind: trace.KindPause, C: -1}}, "negative length"},
		{"phase-outside-pause", []trace.Event{
			{At: 0, Kind: trace.KindPhase, Phase: simtime.PhaseCopy},
		}, "outside the pause"},
		{"phase-open-at-pause-end", []trace.Event{
			pause, {At: 1, Kind: trace.KindPhase, Phase: simtime.PhaseCopy, C: 4},
		}, "outside the pause"},
		{"phase-after-pause", []trace.Event{
			pause, {At: 5, Kind: trace.KindPhase, Phase: simtime.PhaseCopy},
		}, "outside the pause"},
		{"negative-phase", []trace.Event{
			pause, {At: 1, Kind: trace.KindPhase, Phase: simtime.PhaseCopy, C: -1},
		}, "outside the pause"},
		{"phase-overlap", []trace.Event{
			pause,
			{At: 0, Kind: trace.KindPhase, Phase: simtime.PhaseCopy, C: 2},
			{At: 1, Kind: trace.KindPhase, Phase: simtime.PhaseFlip, C: 1},
		}, "overlaps the phase before it"},
		{"unknown-phase", []trace.Event{pause, {At: 0, Kind: trace.KindPhase, Phase: simtime.NumPhases}}, "unknown phase"},
		{"unknown-kind", []trace.Event{{At: 0, Kind: trace.KindLogEpoch + 1}}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := trace.Validate(tc.evs)
			if err == nil {
				t.Fatal("Validate accepted a malformed trace")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMMUExact pins the MMU computation on a hand-built trace with one
// 10 ms pause at [50 ms, 60 ms) inside a 100 ms run, where every value is
// computable by hand.
func TestMMUExact(t *testing.T) {
	evs := []trace.Event{{At: 0, Kind: trace.KindAllocEpoch}}
	evs = mkPause(evs, 50*ms, 60*ms)
	evs = append(evs, trace.Event{At: 100 * ms, Kind: trace.KindAllocEpoch})
	a, err := trace.Analyze(evs)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Span; got != 100*ms {
		t.Fatalf("Total = %v, want 100ms", got)
	}
	if got := a.Utilization(); got != 0.9 {
		t.Fatalf("Utilization = %v, want 0.9", got)
	}
	cases := []struct {
		w    simtime.Duration
		want float64
	}{
		{5 * ms, 0},    // fits inside the pause
		{10 * ms, 0},   // exactly the pause
		{20 * ms, 0.5}, // worst window half-consumed
		{40 * ms, 0.75},
		{100 * ms, 0.9},  // whole trace
		{1000 * ms, 0.9}, // longer than the trace degenerates to overall
		{0, 0},
	}
	for _, tc := range cases {
		if got := a.MMU(tc.w); got != tc.want {
			t.Errorf("MMU(%v) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestAnalyzeAttributesPhasesAndPayloads(t *testing.T) {
	evs := []trace.Event{
		{At: 0, Kind: trace.KindPause, A: 4096, B: 17, C: int64(8 * ms), Phase: simtime.Phase(simtime.PauseMajor), Cause: simtime.EntryFinish | simtime.LiftFlip},
		{At: 0, Kind: trace.KindPhase, Phase: simtime.PhaseRootScan, A: 1, C: int64(2 * ms)},
		{At: 2 * ms, Kind: trace.KindPhase, Phase: simtime.PhaseCopy, A: 3, C: int64(5 * ms)},
	}
	a, err := trace.Analyze(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pauses) != 1 || a.Pauses[0].Length != 8*ms {
		t.Fatalf("pauses = %+v, want one 8ms span", a.Pauses)
	}
	if a.Copied != 4096 || a.LogEntries != 17 {
		t.Fatalf("payload totals = %d/%d, want 4096/17", a.Copied, a.LogEntries)
	}
	if a.PhaseTime[simtime.PhaseRootScan] != 2*ms || a.PhaseTime[simtime.PhaseCopy] != 5*ms {
		t.Fatalf("phase times = %v", a.PhaseTime)
	}
	if a.PhaseSpans[simtime.PhaseRootScan] != 1 || a.PhaseSpans[simtime.PhaseCopy] != 3 {
		t.Fatalf("phase counts = %v", a.PhaseSpans)
	}
	if p := a.Pauses[0]; p.PhaseTime != a.PhaseTime || p.PhaseSpans != a.PhaseSpans || p.Kind != simtime.PauseMajor ||
		p.Cause != simtime.EntryFinish|simtime.LiftFlip {
		t.Fatalf("the one pause is %+v, the totals %v / %v", p, a.PhaseTime, a.PhaseSpans)
	}
	if got := a.Percentile(100); got != 8*ms {
		t.Fatalf("Percentile(100) = %v, want 8ms", got)
	}
	// The trace ends inside its one pause's slice, so the span runs to the
	// pause's end, not to the last event's start.
	if a.Span != 8*ms {
		t.Fatalf("Span = %v, want the pause's end, 8ms", a.Span)
	}
	s := a.Summary(a.StandardWindows())
	for _, want := range []string{"pauses             1, total 8.0ms", "root-scan", "copy", "MMU"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestChromeTraceRoundTrip exports a recorded pause and annotations and reads
// the JSON back: it passes its own validator, every slice is an X with a
// duration, and the phases lie inside their pause, which is how Perfetto
// nests them.
func TestChromeTraceRoundTrip(t *testing.T) {
	r := trace.NewRecorder(16)
	r.AllocEpoch(0, 0, 1024)
	r.Counters(1*ms, 1, 2, 3)
	r.LogEpoch(1*ms, 2)
	p := &simtime.Pause{At: 1 * ms, Length: 2 * ms, CopiedB: 64, LogProcN: 1, Cause: simtime.EntryAlloc | simtime.Deferral}
	p.PhaseTime[simtime.PhaseLogReplay], p.PhaseSpans[simtime.PhaseLogReplay] = 1*ms, 2
	p.PhaseTime[simtime.PhaseCopy], p.PhaseSpans[simtime.PhaseCopy] = 1*ms, 1
	r.Pause(p)
	data, err := trace.ChromeTrace(r.Events(), map[string]string{"workload": "unit"})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("emitted trace fails its own validator: %v\n%s", err, data)
	}
	for _, want := range []string{`"pause"`, `"log-replay"`, `"allocated_bytes"`, `"workload": "unit"`, `"cause": 256`, `"spans": 2`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("chrome JSON missing %s", want)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  *float64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var slices []string
	var start, end float64 // the pause's slice
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		slices = append(slices, e.Name)
		if e.Name == "pause" {
			start, end = e.Ts, e.Ts+*e.Dur
		} else if e.Ts < start || e.Ts+*e.Dur > end {
			t.Errorf("phase %s [%v, %v] lies outside the pause [%v, %v]", e.Name, e.Ts, e.Ts+*e.Dur, start, end)
		}
	}
	if got := strings.Join(slices, " "); got != "pause log-replay copy" {
		t.Fatalf("X slices %q, want the pause then its phases in phase order", got)
	}
}

// TestValidateChromeRejectsUnbalanced: the exporter writes X slices, so the
// B/E pairs that could be unbalanced are rejected outright, as are an X
// without a duration or with a negative one, and timestamps out of order.
func TestValidateChromeRejectsUnbalanced(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"empty", `{"traceEvents":[]}`, "no traceEvents"},
		{"open-B", `{"traceEvents":[{"name":"pause","ph":"B","ts":1,"pid":1,"tid":1}]}`, `unsupported phase "B"`},
		{"orphan-E", `{"traceEvents":[{"name":"pause","ph":"E","ts":1,"pid":1,"tid":1}]}`, `unsupported phase "E"`},
		{"mismatched", `{"traceEvents":[
			{"name":"pause","ph":"X","ts":1,"dur":2,"pid":1,"tid":1},
			{"name":"copy","ph":"E","ts":2,"pid":1,"tid":1}]}`, `unsupported phase "E"`},
		{"time-warp", `{"traceEvents":[
			{"name":"a","ph":"X","ts":5,"dur":0,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":4,"dur":0,"pid":1,"tid":1}]}`, "precedes"},
		{"no-dur", `{"traceEvents":[{"name":"pause","ph":"X","ts":1,"pid":1,"tid":1}]}`, "dur of at least 0"},
		{"negative-dur", `{"traceEvents":[{"name":"pause","ph":"X","ts":1,"dur":-0.001,"pid":1,"tid":1}]}`, "dur of at least 0"},
		{"bad-phase", `{"traceEvents":[{"name":"x","ph":"M","ts":1,"pid":1,"tid":1}]}`, "unsupported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := trace.ValidateChrome([]byte(tc.doc))
			if err == nil {
				t.Fatal("ValidateChrome accepted a malformed document")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEventIsFortyBytes holds the pause's kind and cause to the padding they
// ride in: a larger event would grow every recorder's ring.
func TestEventIsFortyBytes(t *testing.T) {
	if n := unsafe.Sizeof(trace.Event{}); n != 40 {
		t.Fatalf("trace.Event is %d bytes, want 40", n)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	a, err := trace.Analyze(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Span != 0 || a.TotalPause() != 0 || len(a.Pauses) != 0 {
		t.Fatal("empty trace produced non-zero digest")
	}
	if got := a.Utilization(); got != 1 {
		t.Fatalf("empty-trace utilization = %v, want 1", got)
	}
}

// BenchmarkRecorderEmit times a recorder's life: "leg" is a serving leg's
// (a 1<<20-event recorder that records 5 000 events), "full" one emit into a
// ring that has wrapped.
func BenchmarkRecorderEmit(b *testing.B) {
	p := copyPause(0, 1)
	emitPause := func(r *trace.Recorder, at simtime.Duration) {
		p.At = at
		r.Pause(p)
		r.AllocEpoch(at+2, 0, int64(at))
	}
	b.Run("leg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := trace.NewRecorder(1 << 20)
			for at := simtime.Duration(0); at < 3000; at += 3 {
				emitPause(r, at)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		r := trace.NewRecorder(1 << 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.AllocEpoch(simtime.Duration(i), 0, int64(i))
		}
	})
}
