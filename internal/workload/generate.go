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
//
// Each cohort is a generator holding its next request; Generate appends the
// earliest (on a tie, the lowest cohort's) and advances that cohort: the order
// a stable sort by (At, Cohort) gives the cohorts' requests concatenated. A
// failing spec answers with the lowest failing cohort's error.
func Generate(spec *Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(spec.Seed)
	gens := make([]cohortGen, len(spec.Cohorts))
	expect, failed := 0.0, false
	for ci := range gens {
		c, base := &spec.Cohorts[ci], root.Split(uint64(ci))
		gens[ci] = cohortGen{c: c, ci: int32(ci), horizon: spec.DurationMs,
			sm:   newSampler(c.Arrival, base.Split(0), base.Split(1)),
			prof: base.Split(2), sess: base.Split(3),
			st: sessionState{meanReqs: c.Profile.SessionReqs}}
		gens[ci].advance()
		expect += c.Arrival.RatePerSec * spec.DurationMs / 1000
		failed = failed || gens[ci].err != nil
	}
	reqs := make([]Req, 0, int(min(expect, maxRequestsPerCohort)))
	for {
		var g *cohortGen
		for i := range gens {
			if c := &gens[i]; c.err == nil && c.t < c.horizon && (g == nil || c.next.At < g.next.At) {
				g = c
			}
		}
		if g == nil {
			break
		}
		if !failed { // once a cohort fails, the rest run on only to find their errors
			reqs = append(reqs, g.next)
		}
		g.advance()
		failed = failed || g.err != nil
	}
	for i := range gens {
		if err := gens[i].err; err != nil {
			return nil, err
		}
	}
	return &Trace{Spec: spec, Reqs: reqs}, nil
}

// cohortGen materialises one cohort's requests in arrival order, one pending
// request at a time. Substream layout: 0 = arrival gaps, 1 = burst schedule,
// 2 = request profile, 3 = session lifecycle.
type cohortGen struct {
	c          *Cohort
	ci         int32
	horizon    float64
	sm         sampler
	prof, sess *rng.Stream
	st         sessionState
	t          float64    // arrival clock, ms
	n          int        // requests drawn
	slab       []ObjAlloc // the chunk the next request's objects are cut from
	next       Req        // the pending request, until t passes the horizon or err is set
	err        error
}

// advance draws the cohort's next request into g.next.
func (g *cohortGen) advance() {
	gap := g.sm.next()
	g.err = checkFloat(gap, "inter-arrival gap")
	g.t += gap
	if g.err == nil && g.t < g.horizon && g.n >= maxRequestsPerCohort {
		g.err = fmt.Errorf("workload: cohort %s exceeds %d requests; lower rate_per_sec or duration_ms",
			g.c.Name, maxRequestsPerCohort)
	}
	if g.err != nil || g.t >= g.horizon {
		return
	}
	g.n++
	p, prof := &g.c.Profile, g.prof
	r := Req{
		At:     simtime.Duration(int64(g.t*float64(simtime.Millisecond) + 0.5)),
		Cohort: g.ci,
		Muts:   int32(meanDraw(prof, p.Mutations)),
		Steps:  int32(meanDraw(prof, p.WorkSteps)),
	}
	g.st.assign(&r, g.sess, p.SessionWords)
	r.Objs = cutObjs(&g.slab, 1+prof.Intn(2*p.ObjsPerReq-1)) // mean ObjsPerReq, min 1
	for i := range r.Objs {
		r.Objs[i].Words = int32(wordsDraw(prof, p.ObjWords))
		r.Objs[i].Retain = -1
		if prof.Float64() < p.RetainPct {
			r.Objs[i].Retain = int32(prof.Intn(p.SessionWords))
		}
	}
	g.next = r
}

// cutObjs takes the next n objects of slab, starting a chunk of 4 096 when it
// cannot hold them. The window's capacity ends with it, so no request can
// append into its neighbour's objects.
func cutObjs(slab *[]ObjAlloc, n int) []ObjAlloc {
	if len(*slab)+n > cap(*slab) {
		*slab = make([]ObjAlloc, 0, max(4096, n))
	}
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
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
