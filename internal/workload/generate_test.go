package workload

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repligc/internal/rng"
	"repligc/internal/simtime"
)

// generateReference is Generate as it was before the one-pass merge: every
// cohort materialised whole, the cohorts concatenated in index order, then
// one stable sort by arrival and cohort. It is the oracle Generate's order,
// draws and errors are held to.
func generateReference(spec *Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(spec.Seed)
	var all []Req
	for ci := range spec.Cohorts {
		c := &spec.Cohorts[ci]
		base := root.Split(uint64(ci))
		reqs, err := generateCohortReference(c, int32(ci), spec.DurationMs, base)
		if err != nil {
			return nil, err
		}
		all = append(all, reqs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Cohort < all[j].Cohort
	})
	return &Trace{Spec: spec, Reqs: all}, nil
}

// generateCohortReference samples one cohort's requests against the duration
// horizon. Substream layout: 0 = arrival gaps, 1 = burst schedule, 2 = request
// profile, 3 = session lifecycle.
func generateCohortReference(c *Cohort, ci int32, horizon float64, base *rng.Stream) ([]Req, error) {
	sm := newSampler(c.Arrival, base.Split(0), base.Split(1))
	prof := base.Split(2)
	sess := base.Split(3)
	st := sessionState{meanReqs: c.Profile.SessionReqs}

	var out []Req
	t := 0.0
	for {
		gap := sm.next()
		if err := checkFloat(gap, "inter-arrival gap"); err != nil {
			return nil, err
		}
		t += gap
		if t >= horizon {
			break
		}
		if len(out) >= maxRequestsPerCohort {
			return nil, fmt.Errorf("workload: cohort %s exceeds %d requests; lower rate_per_sec or duration_ms",
				c.Name, maxRequestsPerCohort)
		}
		r := Req{
			At:     simtime.Duration(int64(t*float64(simtime.Millisecond) + 0.5)),
			Cohort: ci,
			Muts:   int32(meanDraw(prof, c.Profile.Mutations)),
			Steps:  int32(meanDraw(prof, c.Profile.WorkSteps)),
		}
		st.assign(&r, sess, c.Profile.SessionWords)
		n := 1 + prof.Intn(2*c.Profile.ObjsPerReq-1) // mean ObjsPerReq, min 1
		r.Objs = make([]ObjAlloc, n)
		for i := range r.Objs {
			r.Objs[i].Words = int32(wordsDraw(prof, c.Profile.ObjWords))
			r.Objs[i].Retain = -1
			if prof.Float64() < c.Profile.RetainPct {
				r.Objs[i].Retain = int32(prof.Intn(c.Profile.SessionWords))
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// mixedSpec reads the committed example spec, optionally stretched to
// durationMs and with every cohort's rate scaled by rate.
func mixedSpec(t testing.TB, durationMs, rate float64) *Spec {
	t.Helper()
	raw, err := os.ReadFile("../../examples/serve/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if durationMs > 0 {
		spec.DurationMs = durationMs
	}
	for i := range spec.Cohorts {
		spec.Cohorts[i].Arrival.RatePerSec *= rate
	}
	return spec
}

// threeCohortSpec mixes a heavy-tailed Gamma cohort, a bursty Poisson one
// and a bursty Gamma one, so ties and interleavings come from every law.
func threeCohortSpec() *Spec {
	spec := testSpec()
	spec.Cohorts[0].Arrival = Arrival{Law: LawGamma, RatePerSec: 300, Shape: 0.4}
	spec.Cohorts = append(spec.Cohorts, Cohort{
		Name: "bursty-poisson",
		Arrival: Arrival{Law: LawPoisson, RatePerSec: 250,
			Burst: &Burst{OnMs: 50, OffMs: 150, OffFactor: 10}},
		Profile: Profile{ObjsPerReq: 3, ObjWords: 8, RetainPct: 0.1,
			SessionWords: 16, SessionReqs: 20, Mutations: 4, WorkSteps: 500},
		SLO: SLO{TargetMs: 5, DeadlineMs: 50},
	})
	return spec
}

// overflowSpec has two cohorts that both pass maxRequestsPerCohort within the
// horizon; the second, twice as fast, passes it first in arrival order.
func overflowSpec() *Spec {
	p := Profile{ObjsPerReq: 1, ObjWords: 2, SessionWords: 2, SessionReqs: 1}
	slo := SLO{TargetMs: 1, DeadlineMs: 1}
	return &Spec{Name: "overflow", Seed: 3, DurationMs: 1000, Cohorts: []Cohort{
		{Name: "slow", Arrival: Arrival{Law: LawPoisson, RatePerSec: 1.5 * maxRequestsPerCohort}, Profile: p, SLO: slo},
		{Name: "fast", Arrival: Arrival{Law: LawPoisson, RatePerSec: 3 * maxRequestsPerCohort}, Profile: p, SLO: slo},
	}}
}

// TestGenerateMatchesReference holds Generate to the concatenate-and-sort
// oracle: the same requests, field by field, in the same order, so the same
// fingerprint, over several seeds of every arrival law, bursts, ties between
// cohorts and the benchmark's lowest and highest serving rates; and a spec
// that overflows answers with the oracle's error.
func TestGenerateMatchesReference(t *testing.T) {
	specs := map[string]func() *Spec{
		"mixed":         func() *Spec { return mixedSpec(t, 0, 1) },
		"mixed-60s-1x":  func() *Spec { return mixedSpec(t, 60000, 1) },
		"mixed-60s-2.5": func() *Spec { return mixedSpec(t, 60000, 2.5) },
		"three-cohort":  threeCohortSpec,
	}
	for name, mk := range specs {
		for _, seed := range []uint64{1, 7, 1993} {
			spec := mk()
			spec.Seed = seed
			want, err := generateReference(spec)
			if err != nil {
				t.Fatalf("%s seed %d: reference: %v", name, seed, err)
			}
			got, err := Generate(spec)
			if err != nil {
				t.Fatalf("%s seed %d: Generate: %v", name, seed, err)
			}
			if len(got.Reqs) != len(want.Reqs) {
				t.Fatalf("%s seed %d: %d requests, the reference made %d", name, seed, len(got.Reqs), len(want.Reqs))
			}
			for i := range want.Reqs {
				if !reflect.DeepEqual(got.Reqs[i], want.Reqs[i]) {
					t.Fatalf("%s seed %d: request %d is\n%+v\nthe reference's is\n%+v", name, seed, i, got.Reqs[i], want.Reqs[i])
				}
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s seed %d: fingerprint %016x, the reference's %016x", name, seed, got.Fingerprint(), want.Fingerprint())
			}
		}
	}
	// A first cohort whose first gap is not finite answers before the second
	// cohort overflows.
	nonFinite := overflowSpec()
	nonFinite.Cohorts[0].Arrival.RatePerSec = 1e-310
	for name, spec := range map[string]*Spec{"both overflow": overflowSpec(), "non-finite gap": nonFinite} {
		_, want := generateReference(spec)
		_, got := Generate(spec)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: Generate returned %v, the reference %v", name, got, want)
		}
	}
}

// TestGenerateAllocations holds trace materialisation to allocating per
// slab chunk and per cohort, not per request: objects are windows onto a
// cohort's chunks and the request list is sized from the spec's rates.
func TestGenerateAllocations(t *testing.T) {
	spec := mixedSpec(t, 0, 1)
	tr := mustGenerate(t, spec)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Generate(spec); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(tr.Reqs)/512 + 32); allocs > limit {
		t.Fatalf("Generate allocated %.0f times for %d requests, want at most %.0f", allocs, len(tr.Reqs), limit)
	}
	t.Logf("%.0f allocations for %d requests", allocs, len(tr.Reqs))
}

// BenchmarkGenerate materialises the example spec stretched to 60 s at the
// serving ladder's seven rates, 1.00× to 2.50× in steps of 0.25.
func BenchmarkGenerate(b *testing.B) {
	var specs []*Spec
	for f := 1.0; f <= 2.5; f += 0.25 {
		specs = append(specs, mixedSpec(b, 60000, f))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := Generate(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
