package workload

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repligc/internal/artifact"
	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/heap"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// testSpec is a two-cohort serving mix small enough for unit tests but busy
// enough to provoke collections on the default heap: an interactive cohort
// with tight SLOs and a mutation-heavy batch cohort with bursty arrivals.
func testSpec() *Spec {
	return &Spec{
		Name:       "test-mixed",
		Seed:       7,
		DurationMs: 1500,
		Cohorts: []Cohort{
			{
				Name:    "interactive",
				Arrival: Arrival{Law: LawPoisson, RatePerSec: 400},
				Profile: Profile{
					ObjsPerReq: 6, ObjWords: 16, RetainPct: 0.25,
					SessionWords: 64, SessionReqs: 8,
					Mutations: 12, WorkSteps: 2000,
				},
				SLO: SLO{TargetMs: 2, DeadlineMs: 10},
			},
			{
				Name: "batch-ingest",
				Arrival: Arrival{
					Law: LawGamma, RatePerSec: 40, Shape: 0.7,
					Burst: &Burst{OnMs: 200, OffMs: 100, OffFactor: 4},
				},
				Profile: Profile{
					ObjsPerReq: 40, ObjWords: 64, RetainPct: 0.5,
					SessionWords: 256, SessionReqs: 4,
					Mutations: 48, WorkSteps: 20000,
				},
				SLO: SLO{TargetMs: 20, DeadlineMs: 100},
			},
		},
	}
}

func mustGenerate(t *testing.T, spec *Spec) *Trace {
	t.Helper()
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Reqs) == 0 {
		t.Fatal("Generate produced no requests")
	}
	return tr
}

func TestGenerateDeterministicAndSeedSensitive(t *testing.T) {
	a := mustGenerate(t, testSpec())
	b := mustGenerate(t, testSpec())
	if !reflect.DeepEqual(a.Reqs, b.Reqs) {
		t.Fatal("same spec generated different traces")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same spec generated different fingerprints")
	}
	other := testSpec()
	other.Seed = 8
	c := mustGenerate(t, other)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds generated identical traces")
	}
	// Arrivals are sorted and in-horizon.
	last := a.Reqs[0].At
	for _, r := range a.Reqs {
		if r.At < last {
			t.Fatal("trace arrivals are not sorted")
		}
		last = r.At
		if r.At.Milliseconds() >= testSpec().DurationMs {
			t.Fatalf("arrival %v beyond the %v ms horizon", r.At, testSpec().DurationMs)
		}
	}
}

func TestArrivalLaws(t *testing.T) {
	for _, law := range []string{LawPoisson, LawGamma} {
		spec := testSpec()
		spec.Cohorts = spec.Cohorts[:1]
		spec.Cohorts[0].Arrival = Arrival{Law: law, RatePerSec: 200, Shape: 1.5}
		tr := mustGenerate(t, spec)
		// Open-loop rate: expect roughly rate*duration arrivals; the laws all
		// have the configured mean, so a factor-2 band is generous.
		want := 200 * spec.DurationMs / 1000
		if n := float64(len(tr.Reqs)); n < want/2 || n > want*2 {
			t.Errorf("law %s: %d requests, want about %.0f", law, len(tr.Reqs), want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if !reflect.DeepEqual(tr.Reqs, dec.Reqs) {
		t.Fatal("decoded requests differ from encoded")
	}
	if tr.Fingerprint() != dec.Fingerprint() {
		t.Fatal("decoded fingerprint differs")
	}
	// Re-encoding the decoded trace is bit-identical: the artifact is a
	// canonical form.
	enc2, err := EncodeTrace(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(enc) != string(enc2) {
		t.Fatal("re-encoded artifact differs byte-for-byte")
	}
}

func TestTraceCorruptionDetected(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped byte": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-7] },
		"no footer":    func(b []byte) []byte { return b[:len(b)-29] },
	}
	for name, mutate := range cases {
		cp := append([]byte(nil), enc...)
		var ce *artifact.CorruptError
		if _, err := DecodeTrace(mutate(cp)); !errors.As(err, &ce) {
			t.Errorf("%s: decode returned %v, want a *artifact.CorruptError", name, err)
		}
	}
}

// TestDecodeRejectsUnservableRequests forges artifacts that are correctly
// framed and fingerprint-consistent — EncodeTrace does not judge what it is
// given, and FNV is not a MAC — but carry a request no generator produces.
// Each must be refused with the typed error; the first used to decode cleanly
// and panic the engine with an index out of range.
func TestDecodeRejectsUnservableRequests(t *testing.T) {
	forgeries := map[string]func(tr *Trace){
		"negative session":        func(tr *Trace) { tr.Reqs[0].Session = -1 },
		"session never created":   func(tr *Trace) { tr.Reqs[0].Session = 1 << 30 },
		"negative mutations":      func(tr *Trace) { tr.Reqs[0].Muts = -1 },
		"negative steps":          func(tr *Trace) { tr.Reqs[0].Steps = -5 },
		"session of wrong length": func(tr *Trace) { tr.Reqs[0].NewWords = 1 },
		"negative session length": func(tr *Trace) { tr.Reqs[0].NewWords = -64 },
		"empty object":            func(tr *Trace) { tr.Reqs[0].Objs[0].Words = 0 },
		"retain slot past state":  func(tr *Trace) { tr.Reqs[0].Objs[0].Retain = 64 },
		"retain slot below -1":    func(tr *Trace) { tr.Reqs[0].Objs[0].Retain = -2 },
		"cohort out of range":     func(tr *Trace) { tr.Reqs[0].Cohort = 2 },
		"arrivals out of order":   func(tr *Trace) { tr.Reqs[1].At = tr.Reqs[0].At - 1 },
		"negative arrival":        func(tr *Trace) { tr.Reqs[0].At = -1 },
	}
	for name, forge := range forgeries {
		tr := mustGenerate(t, testSpec())
		if tr.Reqs[0].Cohort != 0 || tr.Reqs[0].NewWords != 64 {
			t.Fatalf("first request %+v is not the interactive cohort's session start the forgeries assume", tr.Reqs[0])
		}
		forge(tr)
		enc, err := EncodeTrace(tr)
		if err != nil {
			t.Fatalf("%s: EncodeTrace: %v", name, err)
		}
		dec, err := DecodeTrace(enc)
		var ce *artifact.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: DecodeTrace returned %v, want a *artifact.CorruptError", name, err)
		}
		if err == nil { // servereplay's path: whatever decodes gets served
			if _, err := RunLegs(dec, StandardLegs()[1:]); err != nil {
				t.Logf("%s: served with error %v", name, err)
			}
		}
	}
}

// TestDeterminismMatrix is the satellite matrix, over every collector the
// shared table names: serving the same trace twice is bit-identical (reports
// and heap fingerprints), and the semantic heap fingerprint agrees across all
// of them — incremental or not, replicating or stop-and-copy, every mutation
// logged or pointers only, they all computed the same session graph. A name
// that could not serve would have to say so with the typed error; none does.
func TestDeterminismMatrix(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	fps := map[string]string{}
	for _, coll := range rig.Table {
		var legs [2]*Leg
		for round := 0; round < 2; round++ {
			rt, err := NewRuntime(tr.Spec, rig.Config{Collector: coll})
			if err != nil {
				t.Fatalf("%s: NewRuntime: %v", coll.Name, err)
			}
			if rt.Collector != coll.Name {
				t.Fatalf("%s: runtime is labelled %q", coll.Name, rt.Collector)
			}
			if rt.Recorder != nil {
				t.Fatalf("%s: a configuration with no Trace got a flight recorder", coll.Name)
			}
			leg, err := Serve(rt, tr, "det", ServeOptions{})
			if err != nil {
				t.Fatalf("%s: Serve: %v", coll.Name, err)
			}
			// The leg's MMU is a digest of the collector's pause record, over
			// the whole run.
			if err := leg.Run.Check(); err != nil {
				t.Fatalf("%s: %v", coll.Name, err)
			}
			if last := leg.Run.MMU[len(leg.Run.MMU)-1].WindowMs; last < leg.ElapsedMs || last != leg.Run.ElapsedMs {
				t.Errorf("%s: the last MMU window is %v ms, the run lasted %v ms", coll.Name, last, leg.ElapsedMs)
			}
			legs[round] = leg
		}
		a, _ := json.Marshal(legs[0])
		b, _ := json.Marshal(legs[1])
		if string(a) != string(b) {
			t.Errorf("%s: two runs of the same trace produced different reports", coll.Name)
		}
		fps[coll.Name] = legs[0].HeapFingerprint
		if legs[0].Requests != len(tr.Reqs) {
			t.Errorf("%s: served %d of %d requests", coll.Name, legs[0].Requests, len(tr.Reqs))
		}
	}
	for _, coll := range rig.Table {
		if fps[coll.Name] != fps[rig.RT.Name] {
			t.Errorf("heap fingerprints disagree across collectors: %v", fps)
			break
		}
	}
}

// TestServeWithoutGroup serves through a Runtime assembled by hand as the
// frozen benchmarks/host assembles it — heap, mutator, collector and name, no
// Group — and gets the leg a runtime from rig.New gets: Serve ends the run
// itself and reads nothing such a Runtime lacks.
func TestServeWithoutGroup(t *testing.T) {
	spec := testSpec()
	spec.DurationMs = 400
	tr := mustGenerate(t, spec)
	hs := spec.Heap.WithDefaults()
	n := hs.NurseryKB << 10
	h := heap.New(heap.Config{NurseryBytes: n, NurseryCapBytes: max(16*n, 16<<20), OldSemiBytes: hs.OldMB << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, core.Config{NurseryBytes: n, MajorThresholdBytes: hs.MajorKB << 10,
		CopyLimitBytes: hs.CopyLimitKB << 10, IncrementalMinor: true, IncrementalMajor: true})
	m.AttachGC(gc)
	bare, err := Serve(&Runtime{Heap: h, Mutator: m, GC: gc, Collector: rig.RT.Name}, tr, "leg", ServeOptions{})
	if err != nil {
		t.Fatalf("serving without a group: %v", err)
	}
	rt, err := NewRuntime(spec, rig.Config{Collector: rig.RT})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Serve(rt, tr, "leg", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(bare)
	b, _ := json.Marshal(built)
	if bare.Run.Pauses == 0 || string(a) != string(b) {
		t.Errorf("served without a group (%d pauses):\n %s\nbuilt by rig.New:\n %s", bare.Run.Pauses, a, b)
	}
	// The row reads the one member a Runtime without a Group has: its
	// allocation and log writes, and the replicating engine's counters.
	if err := bare.Run.Check(); err != nil || bare.Run.AllocatedBytes != m.BytesAllocated ||
		bare.Run.LogAppended != m.LogWrites || bare.Run.Collector != rig.RT.Name || bare.Run.MinorCollections == 0 {
		t.Errorf("the row of a run without a group: %+v (%v); the mutator allocated %d B and wrote %d log entries",
			bare.Run, err, m.BytesAllocated, m.LogWrites)
	}
	if text := bare.Stats.Text("leg"); !strings.Contains(text, "largest copy ") {
		t.Errorf("the run report of a run without a group lacks the replicating engine's lines:\n%s", text)
	}
}

// TestReplayMatchesRecording: serving a decoded artifact yields exactly the
// metrics of serving the original trace.
func TestReplayMatchesRecording(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	secA, err := RunLegs(tr, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs(recorded): %v", err)
	}
	secB, err := RunLegs(dec, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs(replayed): %v", err)
	}
	a, _ := json.Marshal(secA)
	b, _ := json.Marshal(secB)
	if string(a) != string(b) {
		t.Fatal("replaying the recorded trace produced different metrics")
	}
}

// TestNaiveBarrierWorseTails: on the same trace, the append-every-store
// barrier must show measurably worse tail latency than the coalescing
// barrier — the serving-facing form of the perf trajectory's headline.
func TestNaiveBarrierWorseTails(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	sec, err := RunLegs(tr, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs: %v", err)
	}
	if len(sec.Legs) != 2 {
		t.Fatalf("expected 2 legs, got %d", len(sec.Legs))
	}
	naive, coal := sec.Legs[0], sec.Legs[1]
	if naive.Name != "naive-barrier" || coal.Name != "coalesced" {
		t.Fatalf("unexpected leg order: %s, %s", naive.Name, coal.Name)
	}
	if naive.HeapFingerprint != coal.HeapFingerprint {
		t.Fatal("barrier legs computed different session graphs")
	}
	worse := 0
	for i := range naive.Cohorts {
		if naive.Cohorts[i].Latency.P99 > coal.Cohorts[i].Latency.P99 {
			worse++
		}
		if naive.Cohorts[i].Latency.P99 < coal.Cohorts[i].Latency.P99 {
			t.Errorf("cohort %s: naive p99 %.3f ms beats coalesced %.3f ms",
				naive.Cohorts[i].Name, naive.Cohorts[i].Latency.P99, coal.Cohorts[i].Latency.P99)
		}
	}
	if worse == 0 {
		t.Errorf("naive barrier shows no tail-latency penalty on any cohort (naive p99s %v, coalesced %v)",
			[]float64{naive.Cohorts[0].Latency.P99, naive.Cohorts[1].Latency.P99},
			[]float64{coal.Cohorts[0].Latency.P99, coal.Cohorts[1].Latency.P99})
	}
}

// TestFaultInjectionUnderLoad drives a log-spike-plus-shrink plan under live
// traffic: the degradation ladder's emergency pauses must surface as SLO
// misses in the serving report, never as a crash.
func TestFaultInjectionUnderLoad(t *testing.T) {
	spec := testSpec()
	tr := mustGenerate(t, spec)
	rt, err := NewRuntime(spec, rig.Config{Collector: rig.RT})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	// One event per ~40 requests: spikes of logged mutations plus old-space
	// shrinks with tiny slack, restored before the end so the run finishes.
	n := len(tr.Reqs)
	plan := faultinject.Plan{Events: []faultinject.Event{
		{AtOp: int64(n / 8), Action: faultinject.LogSpike, Arg: 4096},
		{AtOp: int64(n / 4), Action: faultinject.ShrinkOld, Arg: 64 << 10},
		{AtOp: int64(n/4 + 10), Action: faultinject.LogSpike, Arg: 4096},
		{AtOp: int64(n/4 + 30), Action: faultinject.RestoreHeadroom},
		{AtOp: int64(n / 2), Action: faultinject.LogSpike, Arg: 8192},
	}}
	inj := faultinject.New(rt.Mutator, plan)
	leg, err := Serve(rt, tr, "faulted", ServeOptions{Inject: inj.Tick})
	if err != nil {
		t.Fatalf("Serve under fault injection: %v", err)
	}
	if inj.Injected != len(plan.Events) {
		t.Fatalf("injected %d of %d events", inj.Injected, len(plan.Events))
	}
	if leg.Run.EmergencyCollections == 0 {
		t.Error("shrunken old space provoked no degradation-ladder emergencies")
	}
	lateOrMissed := 0
	for _, c := range leg.Cohorts {
		lateOrMissed += c.SLO.Late + c.SLO.Missed
	}
	if lateOrMissed == 0 {
		t.Error("emergency pauses left no mark on any cohort's SLO breakdown")
	}
}

func TestSectionValidates(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	sec, err := RunLegs(tr, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs: %v", err)
	}
	data, err := json.MarshalIndent(BuildReport(sec), "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("ValidateReport rejected a genuine report: %v", err)
	}
	// Every leg carries the serving section's required shape.
	for _, leg := range sec.Legs {
		if len(leg.Run.MMU) == 0 || len(leg.Cohorts) != len(tr.Spec.Cohorts) {
			t.Fatalf("leg %s: missing MMU or cohorts", leg.Name)
		}
		for _, c := range leg.Cohorts {
			if c.SLO.Met+c.SLO.Late+c.SLO.Missed != c.Requests {
				t.Fatalf("leg %s cohort %s: SLO classes do not partition requests", leg.Name, c.Name)
			}
		}
	}
	// Perturbations must be rejected.
	bad := strings.Replace(string(data), ReportSchema, "repligc-bench/4", 1)
	if err := ValidateReport([]byte(bad)); err == nil {
		t.Error("ValidateReport accepted a stale schema")
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Serving.Legs[0].Cohorts[0].SLO.Met++
	perturbed, _ := json.Marshal(rep)
	if err := ValidateReport(perturbed); err == nil {
		t.Error("ValidateReport accepted an inconsistent SLO breakdown")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"empty name":     func(s *Spec) { s.Name = "" },
		"no cohorts":     func(s *Spec) { s.Cohorts = nil },
		"zero duration":  func(s *Spec) { s.DurationMs = 0 },
		"dup cohort":     func(s *Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name },
		"bad law":        func(s *Spec) { s.Cohorts[0].Arrival.Law = "zipf" },
		"zero rate":      func(s *Spec) { s.Cohorts[0].Arrival.RatePerSec = 0 },
		"gamma no shape": func(s *Spec) { s.Cohorts[1].Arrival.Shape = 0 },
		"slo inverted":   func(s *Spec) { s.Cohorts[0].SLO.DeadlineMs = 1 },
		"tiny session":   func(s *Spec) { s.Cohorts[0].Profile.SessionWords = 1 },
		"bad retain":     func(s *Spec) { s.Cohorts[0].Profile.RetainPct = 1.5 },
		"burst factor":   func(s *Spec) { s.Cohorts[1].Arrival.Burst.OffFactor = 0.5 },
	}
	for name, breakIt := range cases {
		s := testSpec()
		breakIt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken spec", name)
		}
	}
	// ParseSpec rejects unknown fields.
	if _, err := ParseSpec([]byte(`{"name":"x","duration_ms":1,"cohorts":[],"typo_field":1}`)); err == nil {
		t.Error("ParseSpec accepted an unknown field")
	}
}

// TestRetiredArrivalLaws holds ParseSpec to the two laws a spec may name: the
// Weibull and deterministic laws, which no spec used, are gone, and naming
// one is the unknown-law error.
func TestRetiredArrivalLaws(t *testing.T) {
	for _, law := range []string{"weibull", "deterministic"} {
		spec := testSpec()
		spec.Cohorts[0].Arrival = Arrival{Law: law, RatePerSec: 200, Shape: 1.5}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ParseSpec(data)
		if err == nil || !strings.Contains(err.Error(), `unknown arrival law "`+law+`" (want poisson or gamma)`) {
			t.Errorf("law %s: ParseSpec returned %v, want the unknown-law error", law, err)
		}
	}
}

// TestP99RankMatchesRetiredRule sweeps the sample counts a serving run can
// produce: the integer ceiling picks the rank the epsilon ceiling it replaced
// picked (the rule PR 10 retired from simtime), so no committed queue-depth
// p99 moved.
func TestP99RankMatchesRetiredRule(t *testing.T) {
	for n := 1; n <= 1_000_000; n++ {
		old := int(99.0/100*float64(n)+0.999999) - 1
		if old < 0 {
			old = 0
		}
		if got := p99Rank(n); got != old || got < 0 || got >= n {
			t.Fatalf("n=%d: rank %d, the retired rule gave %d", n, got, old)
		}
	}
}
