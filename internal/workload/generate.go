package workload

// Trace materialisation. Generate resolves every random draw of a spec —
// arrival instants, session starts and ends, object sizes, retention
// choices, mutation and work counts — into a flat, fully-deterministic
// request list. The serving engine then consumes the trace without touching
// the RNG at all, which is what makes record→replay bit-identical and lets
// different collectors serve the *same* traffic.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repligc/internal/artifact"
	"repligc/internal/rng"
	"repligc/internal/simtime"
)

// ObjAlloc is one materialised allocation inside a request.
type ObjAlloc struct {
	Words  int32
	Retain int32 // session-state slot to store the object into, or -1 to drop it
}

// Req is one fully-sampled request. Cohort indexes Spec.Cohorts; Session is
// a slot in that cohort's session root table.
type Req struct {
	At       simtime.Duration // arrival instant
	Cohort   int32
	Session  int32
	NewWords int32 // > 0: first request of the session — allocate its state with this many words
	End      bool  // last request of the session — drop the root after serving
	Muts     int32 // stores into session state
	Steps    int32 // plain mutator instructions
	Objs     []ObjAlloc
}

// Trace is a materialised workload: a spec plus its resolved request
// sequence, sorted by arrival (ties broken by cohort index, then per-cohort
// generation order).
type Trace struct {
	Spec *Spec
	Reqs []Req
}

// maxRequestsPerCohort bounds runaway specs (rate × duration) before they
// allocate unbounded memory.
const maxRequestsPerCohort = 1 << 20

// Generate materialises spec into a trace. The same spec (including seed)
// always yields a bit-identical trace.
func Generate(spec *Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(spec.Seed)
	var all []Req
	for ci := range spec.Cohorts {
		c := &spec.Cohorts[ci]
		base := root.Split(uint64(ci))
		reqs, err := generateCohort(c, int32(ci), spec.DurationMs, base)
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

// generateCohort samples one cohort's requests against the duration horizon.
// Substream layout: 0 = arrival gaps, 1 = burst schedule, 2 = request
// profile, 3 = session lifecycle.
func generateCohort(c *Cohort, ci int32, horizon float64, base *rng.Stream) ([]Req, error) {
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

// sessionState drives the session lifecycle of one cohort: each session is
// born with a drawn request budget, serves that many requests, then ends and
// recycles its root-table slot.
type sessionState struct {
	meanReqs int
	active   []liveSession
	free     []int32
	next     int32
}

type liveSession struct {
	slot int32
	left int
}

// assign picks (or creates) the session that serves r and stamps the
// session fields.
func (st *sessionState) assign(r *Req, sess *rng.Stream, sessionWords int) {
	pNew := 1.0 / float64(st.meanReqs)
	if len(st.active) == 0 || sess.Float64() < pNew {
		slot := st.next
		if n := len(st.free); n > 0 {
			slot = st.free[n-1]
			st.free = st.free[:n-1]
		} else {
			st.next++
		}
		life := 1 + sess.Intn(2*st.meanReqs-1+1) // mean ~meanReqs, min 1
		st.active = append(st.active, liveSession{slot: slot, left: life})
		r.NewWords = int32(sessionWords)
	}
	idx := len(st.active) - 1
	if r.NewWords == 0 {
		idx = sess.Intn(len(st.active))
	}
	ls := &st.active[idx]
	r.Session = ls.slot
	ls.left--
	if ls.left <= 0 {
		r.End = true
		st.free = append(st.free, ls.slot)
		st.active[idx] = st.active[len(st.active)-1]
		st.active = st.active[:len(st.active)-1]
	}
}

// meanDraw samples a non-negative integer with the given mean (uniform on
// [0, 2m]); zero mean always yields zero.
func meanDraw(s *rng.Stream, m int) int {
	if m <= 0 {
		return 0
	}
	return s.Intn(2*m + 1)
}

// wordsDraw samples an object size in words with the given mean, never
// below the two-word minimum (uniform on [2, 2m-2]).
func wordsDraw(s *rng.Stream, m int) int {
	if m <= 2 {
		return 2
	}
	return 2 + s.Intn(2*(m-2)+1)
}

// Sessions reports how many sessions the trace creates per cohort.
func (t *Trace) Sessions() []int {
	out := make([]int, len(t.Spec.Cohorts))
	for i := range t.Reqs {
		if t.Reqs[i].NewWords > 0 {
			out[t.Reqs[i].Cohort]++
		}
	}
	return out
}

// slotCount reports the session root-table size each cohort needs.
func (t *Trace) slotCount() []int32 {
	out := make([]int32, len(t.Spec.Cohorts))
	for i := range t.Reqs {
		r := &t.Reqs[i]
		if r.Session+1 > out[r.Cohort] {
			out[r.Cohort] = r.Session + 1
		}
	}
	return out
}

// Fingerprint is an FNV-1a digest of the spec (canonical JSON) and every
// materialised request field, in order. Replay verifies against it, and the
// serving report embeds it so two reports can be tied to the same traffic.
func (t *Trace) Fingerprint() uint64 {
	specJSON, err := json.Marshal(t.Spec)
	if err != nil {
		panic("workload: spec marshal failed: " + err.Error())
	}
	h := artifact.NewHash64()
	h.Bytes(specJSON)
	h.U64(uint64(len(t.Reqs)))
	for i := range t.Reqs {
		r := &t.Reqs[i]
		h.U64(uint64(r.At))
		h.U64(uint64(uint32(r.Cohort)))
		h.U64(uint64(uint32(r.Session)))
		h.U64(uint64(uint32(r.NewWords)))
		h.Bool(r.End)
		h.U64(uint64(uint32(r.Muts)))
		h.U64(uint64(uint32(r.Steps)))
		h.U64(uint64(len(r.Objs)))
		for _, o := range r.Objs {
			h.U64(uint64(uint32(o.Words)))
			h.U64(uint64(uint32(o.Retain)))
		}
	}
	return uint64(h)
}

// checkFloat guards math results that must stay finite (belt and braces for
// exotic spec values).
func checkFloat(v float64, what string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("workload: %s is not finite", what)
	}
	return nil
}
