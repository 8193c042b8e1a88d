// Package workload is the open-loop, request-driven serving engine: the
// measurement substrate for "GC under live traffic". A Spec names client
// cohorts — each with its own arrival process, request profile and SLO — and
// a seed; Generate materialises it into a Trace of fully-sampled requests
// (every random draw resolved, so record and replay are trivially
// bit-identical); Serve drives the trace through the existing
// Runtime/Mutator on the simulated clock, queueing arrivals open-loop so a
// GC pause makes queued requests late, and reports what a service operator
// cares about: per-cohort latency percentiles, SLO-class breakdowns,
// pause-intrusion attribution, queue depths, and MMU at request granularity.
//
// Everything is deterministic: arrival, size and session draws come from
// independent substreams (rng.Stream.Split) of the one spec seed, and the
// engine never reads the wall clock or global randomness.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Arrival laws.
const (
	LawPoisson = "poisson" // exponential inter-arrivals
	LawGamma   = "gamma"   // gamma inter-arrivals (Shape = k; burstier for k < 1)
)

// Spec describes one serving workload: the traffic, the per-cohort request
// shapes, and the heap the server runs on. A spec plus its seed fully
// determines the generated trace.
type Spec struct {
	Name       string   `json:"name"`
	Seed       uint64   `json:"seed"`
	DurationMs float64  `json:"duration_ms"` // arrival horizon in simulated milliseconds
	Heap       HeapSpec `json:"heap"`
	Cohorts    []Cohort `json:"cohorts"`
}

// HeapSpec sizes the server's heap in the paper's own parameters. Zero
// fields take the 50 ms-pause-target defaults (N = 200 KB, O = 1 MB,
// L = 100 KB, 16 MB old semispaces).
type HeapSpec struct {
	NurseryKB   int64 `json:"nursery_kb"`
	MajorKB     int64 `json:"major_kb"`
	CopyLimitKB int64 `json:"copy_limit_kb"`
	OldMB       int64 `json:"old_mb"`
}

// WithDefaults fills zero fields with the default cell.
func (h HeapSpec) WithDefaults() HeapSpec {
	if h.NurseryKB == 0 {
		h.NurseryKB = 200
	}
	if h.MajorKB == 0 {
		h.MajorKB = 1024
	}
	if h.CopyLimitKB == 0 {
		h.CopyLimitKB = 100
	}
	if h.OldMB == 0 {
		h.OldMB = 16
	}
	return h
}

// Cohort is one named class of clients: an arrival process, a request
// profile, and the SLO its requests are judged against.
type Cohort struct {
	Name    string  `json:"name"`
	Arrival Arrival `json:"arrival"`
	Profile Profile `json:"profile"`
	SLO     SLO     `json:"slo"`
}

// Arrival is a spec-driven inter-arrival law with optional on/off burst
// modulation.
type Arrival struct {
	Law        string  `json:"law"`
	RatePerSec float64 `json:"rate_per_sec"`    // mean arrival rate while "on"
	Shape      float64 `json:"shape,omitempty"` // gamma shape k (1 = exponential)
	Burst      *Burst  `json:"burst,omitempty"` // optional on/off modulation
}

// Burst modulates an arrival process with alternating on/off windows whose
// lengths are exponential with the given means; during an off window every
// inter-arrival gap is stretched by OffFactor.
type Burst struct {
	OnMs      float64 `json:"on_ms"`
	OffMs     float64 `json:"off_ms"`
	OffFactor float64 `json:"off_factor"` // >= 1; gap multiplier while off
}

// Profile shapes one cohort's requests: how much it allocates, how long its
// objects live (ephemeral vs. retained into session state), how much it
// mutates, and how much plain computation it charges. All integer fields are
// means; the generator draws around them.
type Profile struct {
	ObjsPerReq   int     `json:"objs_per_req"`      // mean ephemeral allocations per request
	ObjWords     int     `json:"obj_words"`         // mean words per allocation
	RetainPct    float64 `json:"retain_pct"`        // fraction of objects stored into session state
	SessionWords int     `json:"session_words"`     // session-state array length in words
	SessionReqs  int     `json:"session_requests"`  // mean requests per session
	Mutations    int     `json:"mutations_per_req"` // mean stores into session state per request
	WorkSteps    int     `json:"work_steps"`        // mean mutator instructions per request
}

// SLO classifies a request's latency: met (<= target), late (<= deadline),
// or deadline-missed.
type SLO struct {
	TargetMs   float64 `json:"target_ms"`
	DeadlineMs float64 `json:"deadline_ms"`
}

// ParseSpec decodes and validates a spec document. Unknown fields are
// rejected so a typo in a committed spec cannot silently change a run.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate rejects specs the generator or engine cannot honour.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload spec: name is required")
	}
	if s.DurationMs <= 0 {
		return fmt.Errorf("workload spec %s: duration_ms must be positive", s.Name)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload spec %s: at least one cohort is required", s.Name)
	}
	h := s.Heap
	if h.NurseryKB < 0 || h.MajorKB < 0 || h.CopyLimitKB < 0 || h.OldMB < 0 {
		return fmt.Errorf("workload spec %s: heap sizes must be non-negative", s.Name)
	}
	seen := map[string]bool{}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Name == "" {
			return fmt.Errorf("workload spec %s: cohort %d has no name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload spec %s: duplicate cohort %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("workload spec %s: cohort %s: %w", s.Name, c.Name, err)
		}
		if err := c.Profile.validate(); err != nil {
			return fmt.Errorf("workload spec %s: cohort %s: %w", s.Name, c.Name, err)
		}
		if c.SLO.TargetMs <= 0 || c.SLO.DeadlineMs < c.SLO.TargetMs {
			return fmt.Errorf("workload spec %s: cohort %s: slo needs 0 < target_ms <= deadline_ms",
				s.Name, c.Name)
		}
	}
	return nil
}

func (a *Arrival) validate() error {
	switch a.Law {
	case LawPoisson:
	case LawGamma:
		if a.Shape <= 0 {
			return fmt.Errorf("arrival law %s needs a positive shape", a.Law)
		}
	default:
		return fmt.Errorf("unknown arrival law %q (want %s or %s)", a.Law, LawPoisson, LawGamma)
	}
	if a.RatePerSec <= 0 {
		return fmt.Errorf("arrival rate_per_sec must be positive")
	}
	if b := a.Burst; b != nil {
		if b.OnMs <= 0 || b.OffMs <= 0 {
			return fmt.Errorf("burst on_ms and off_ms must be positive")
		}
		if b.OffFactor < 1 {
			return fmt.Errorf("burst off_factor must be >= 1")
		}
	}
	return nil
}

func (p *Profile) validate() error {
	if p.ObjsPerReq < 1 || p.ObjWords < 2 {
		return fmt.Errorf("profile needs objs_per_req >= 1 and obj_words >= 2")
	}
	if p.RetainPct < 0 || p.RetainPct > 1 {
		return fmt.Errorf("profile retain_pct must be in [0, 1]")
	}
	if p.SessionWords < 2 || p.SessionReqs < 1 {
		return fmt.Errorf("profile needs session_words >= 2 and session_requests >= 1")
	}
	if p.Mutations < 0 || p.WorkSteps < 0 {
		return fmt.Errorf("profile mutations_per_req and work_steps must be non-negative")
	}
	return nil
}
