package workload

// Inter-arrival samplers. Every draw comes from a caller-supplied rng.Stream
// substream, so arrival sequences are pure functions of (spec, seed) and two
// cohorts never share randomness. All samplers return gaps in milliseconds of
// simulated time; the generator converts to simtime.Duration once, at
// materialisation.

import (
	"math"

	"repligc/internal/rng"
)

// sampler draws successive inter-arrival gaps (in ms) for one arrival spec.
type sampler struct {
	a     Arrival
	s     *rng.Stream
	burst *burstState
}

// burstState tracks the alternating on/off schedule of a bursty arrival
// process. Window lengths are exponential with the configured means and come
// from their own substream so enabling bursts does not perturb the base law's
// draw sequence.
type burstState struct {
	b    Burst
	s    *rng.Stream
	now  float64 // schedule clock, ms
	edge float64 // end of the current window, ms
	off  bool    // inside an off window?
}

// newSampler builds a sampler for a; draws comes from the cohort's arrival
// substream and bursts (used only when a.Burst != nil) from the burst
// substream.
func newSampler(a Arrival, draws, bursts *rng.Stream) sampler {
	sm := sampler{a: a, s: draws}
	if a.Burst != nil {
		sm.burst = &burstState{b: *a.Burst, s: bursts}
		sm.burst.edge = expDraw(bursts, a.Burst.OnMs) // start "on"
	}
	return sm
}

// next returns the next inter-arrival gap in milliseconds (> 0).
func (sm *sampler) next() float64 {
	meanMs := 1000.0 / sm.a.RatePerSec
	var gap float64
	switch sm.a.Law {
	case LawPoisson:
		gap = expDraw(sm.s, meanMs)
	case LawGamma:
		// Mean of Gamma(k, theta) is k*theta; fix theta so the mean stays
		// at the configured rate for any shape.
		gap = gammaDraw(sm.s, sm.a.Shape) * meanMs / sm.a.Shape
	default:
		panic("workload: unknown arrival law " + sm.a.Law)
	}
	if gap <= 0 {
		gap = 1e-6 // degenerate draws still advance time
	}
	if sm.burst != nil {
		gap = sm.burst.stretch(gap)
	}
	return gap
}

// stretch applies on/off modulation: a gap that begins inside an off window
// is multiplied by OffFactor. The schedule advances on its own exponential
// clock, so bursts line up across collectors serving the same trace (they
// are resolved at generation time like every other draw).
func (s *burstState) stretch(gap float64) float64 {
	for s.now >= s.edge {
		s.off = !s.off
		mean := s.b.OnMs
		if s.off {
			mean = s.b.OffMs
		}
		s.edge += expDraw(s.s, mean)
	}
	if s.off {
		gap *= s.b.OffFactor
	}
	s.now += gap
	return gap
}

// expDraw samples an exponential with the given mean.
func expDraw(s *rng.Stream, mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// normDraw samples a standard normal (Box-Muller, one branch).
func normDraw(s *rng.Stream) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	v := s.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// gammaDraw samples Gamma(shape, 1) by Marsaglia–Tsang squeeze, with the
// standard boost for shape < 1.
func gammaDraw(s *rng.Stream, shape float64) float64 {
	if shape < 1 {
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return gammaDraw(s, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normDraw(s)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}
