package trace_test

import (
	"strings"
	"testing"
	"unsafe"

	"repligc/internal/simtime"
	"repligc/internal/trace"
)

const ms = simtime.Millisecond

// mkPause appends one [start, end) pause to events.
func mkPause(events []trace.Event, start, end simtime.Duration) []trace.Event {
	return append(events,
		trace.Event{At: start, Kind: trace.KindPauseBegin},
		trace.Event{At: end, Kind: trace.KindPauseEnd},
	)
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
		r.PauseBegin(0)
		r.PauseEnd(p)
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
		r.PauseBegin(p.At)
		r.PauseEnd(p)
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
		r.PauseBegin(at)
		r.PauseEnd(copyPause(at, 2))
		at += 4
	}
	if r.Dropped() == 0 {
		t.Fatal("40 events into an 8-slot ring dropped nothing")
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
// begin is evicted while its end survives, Events must discard through that
// end so the suffix still validates.
func TestRingTrimsEvictedPause(t *testing.T) {
	r := trace.NewRecorder(4)
	r.PauseBegin(0)
	for i := 1; i <= 6; i++ {
		r.AllocEpoch(simtime.Duration(i), 0, int64(i)) // evicts the pause-begin
	}
	r.PauseEnd(&simtime.Pause{At: 0, Length: 7})
	evs := r.Events()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("trimmed suffix is not well-formed: %v\nevents: %v", err, evs)
	}
	for _, e := range evs {
		if e.Kind == trace.KindPauseEnd {
			t.Fatal("orphaned pause-end survived trimming")
		}
	}
}

func TestValidateRejectsMalformedTraces(t *testing.T) {
	cases := []struct {
		name string
		evs  []trace.Event
		want string
	}{
		{"time-regression", []trace.Event{
			{At: 5, Kind: trace.KindAllocEpoch}, {At: 4, Kind: trace.KindAllocEpoch},
		}, "precedes"},
		{"nested-pause", []trace.Event{
			{At: 0, Kind: trace.KindPauseBegin}, {At: 1, Kind: trace.KindPauseBegin},
		}, "inside an open pause"},
		{"orphan-pause-end", []trace.Event{
			{At: 0, Kind: trace.KindPauseEnd},
		}, "without an open pause"},
		{"phase-outside-pause", []trace.Event{
			{At: 0, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseCopy},
		}, "outside a pause"},
		{"phase-overlap", []trace.Event{
			{At: 0, Kind: trace.KindPauseBegin},
			{At: 1, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseCopy},
			{At: 2, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseFlip},
		}, "must not overlap"},
		{"phase-mismatch", []trace.Event{
			{At: 0, Kind: trace.KindPauseBegin},
			{At: 1, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseCopy},
			{At: 2, Kind: trace.KindPhaseEnd, Phase: simtime.PhaseFlip},
		}, "does not match"},
		{"phase-open-at-pause-end", []trace.Event{
			{At: 0, Kind: trace.KindPauseBegin},
			{At: 1, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseCopy},
			{At: 2, Kind: trace.KindPauseEnd},
		}, "still open"},
		{"pause-open-at-end", []trace.Event{
			{At: 0, Kind: trace.KindPauseBegin},
		}, "still open"},
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
		{At: 0, Kind: trace.KindPauseBegin},
		{At: 0, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseRootScan},
		{At: 2 * ms, Kind: trace.KindPhaseEnd, Phase: simtime.PhaseRootScan, A: 1},
		{At: 2 * ms, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseCopy},
		{At: 7 * ms, Kind: trace.KindPhaseEnd, Phase: simtime.PhaseCopy, A: 3},
		{At: 8 * ms, Kind: trace.KindPauseEnd, A: 4096, B: 17, C: int64(simtime.PauseMajor), Cause: simtime.EntryFinish | simtime.LiftFlip},
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
	s := a.Summary(a.StandardWindows())
	for _, want := range []string{"pauses             1, total 8.0ms", "root-scan", "copy", "MMU"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	evs := []trace.Event{
		{At: 0, Kind: trace.KindAllocEpoch, A: 1024},
		{At: 1 * ms, Kind: trace.KindPauseBegin},
		{At: 1 * ms, Kind: trace.KindCounters, A: 1, B: 2, C: 3},
		{At: 1 * ms, Kind: trace.KindLogEpoch, A: 2},
		{At: 1 * ms, Kind: trace.KindPhaseBegin, Phase: simtime.PhaseLogReplay},
		{At: 2 * ms, Kind: trace.KindPhaseEnd, Phase: simtime.PhaseLogReplay},
		{At: 3 * ms, Kind: trace.KindPauseEnd, A: 64, B: 1, C: 0, Cause: simtime.EntryTax},
	}
	data, err := trace.ChromeTrace(evs, map[string]string{"workload": "unit"})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("emitted trace fails its own validator: %v\n%s", err, data)
	}
	for _, want := range []string{`"pause"`, `"log-replay"`, `"allocated_bytes"`, `"workload": "unit"`, `"cause": 1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("chrome JSON missing %s", want)
		}
	}
}

func TestValidateChromeRejectsUnbalanced(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"empty", `{"traceEvents":[]}`, "no traceEvents"},
		{"open-B", `{"traceEvents":[{"name":"pause","ph":"B","ts":1,"pid":1,"tid":1}]}`, "left open"},
		{"orphan-E", `{"traceEvents":[{"name":"pause","ph":"E","ts":1,"pid":1,"tid":1}]}`, "no open B"},
		{"mismatched", `{"traceEvents":[
			{"name":"pause","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"copy","ph":"E","ts":2,"pid":1,"tid":1}]}`, "does not match"},
		{"time-warp", `{"traceEvents":[
			{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":4,"pid":1,"tid":1}]}`, "precedes"},
		{"bad-phase", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}`, "unsupported"},
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

// TestEventIsFortyBytes holds the pause-end's cause to the padding it was put
// in: a larger event would grow every recorder's ring.
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
		r.PauseBegin(at)
		p.At = at
		r.PauseEnd(p)
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
