package workload

// Leg orchestration: run one trace through a set of collector
// configurations and assemble the schema-5 serving section. This is the one
// entry point the bench harness and the CLI share, so a section always
// means the same thing no matter which tool produced it.

import (
	"fmt"

	"repligc/internal/rig"
)

// LegSpec names one serving leg: a collector configuration plus the barrier
// mode it runs under.
type LegSpec struct {
	Name         string
	Collector    rig.Collector
	NaiveBarrier bool
}

// StandardLegs is the default leg pair of the perf trajectory: the naive
// append-every-store barrier against the coalescing barrier, both under the
// full real-time collector, serving identical traffic.
func StandardLegs() []LegSpec {
	return []LegSpec{
		{Name: "naive-barrier", Collector: rig.RT, NaiveBarrier: true},
		{Name: "coalesced", Collector: rig.RT},
	}
}

// RunLegs serves t once per leg spec and assembles the serving section.
func RunLegs(t *Trace, legs []LegSpec) (*Section, error) {
	if len(legs) == 0 {
		return nil, fmt.Errorf("workload: no legs to run")
	}
	sec := NewSection(t)
	for _, ls := range legs {
		rt, err := NewRuntime(t.Spec, rig.Config{Collector: ls.Collector, NaiveBarrier: ls.NaiveBarrier})
		if err != nil {
			return nil, fmt.Errorf("workload: leg %s: %w", ls.Name, err)
		}
		leg, err := Serve(rt, t, ls.Name, ServeOptions{})
		if err != nil {
			return nil, fmt.Errorf("workload: leg %s: %w", ls.Name, err)
		}
		sec.Legs = append(sec.Legs, *leg)
	}
	return sec, nil
}

// NewSection is the serving section of t with no leg run yet.
func NewSection(t *Trace) *Section {
	return &Section{
		Spec:             t.Spec.Name,
		Seed:             t.Spec.Seed,
		DurationMs:       t.Spec.DurationMs,
		Requests:         len(t.Reqs),
		TraceFingerprint: fmt.Sprintf("%016x", t.Fingerprint()),
	}
}

// BuildReport wraps a section in the standalone schema-5 document.
func BuildReport(sec *Section) *Report {
	return &Report{Schema: ReportSchema, Serving: *sec}
}
