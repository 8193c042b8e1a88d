package bench

// The serving leg of the perf trajectory (introduced in schema repligc-bench/5): the
// paper's batch workloads measure collector cost per unit of work; this leg
// measures what the collector does to a *service* — request latency tails
// and SLO misses under open-loop traffic. The spec is the committed
// examples/serve/mixed.json (a test holds the two equal): an interactive
// cohort with tight SLOs and a mutation-heavy, bursty batch-ingest cohort,
// served by the naive and coalesced barrier legs over the identical
// materialised trace.

import (
	"fmt"

	"repligc/internal/workload"
)

// DefaultServeSpec is the standard serving mix at scale s.
func DefaultServeSpec(s Scale) *workload.Spec {
	return &workload.Spec{
		Name:       "mixed-serving",
		Seed:       7,
		DurationMs: s.ServeMs,
		Cohorts: []workload.Cohort{
			{
				Name:    "interactive",
				Arrival: workload.Arrival{Law: workload.LawPoisson, RatePerSec: 400},
				Profile: workload.Profile{
					ObjsPerReq: 6, ObjWords: 16, RetainPct: 0.25,
					SessionWords: 64, SessionReqs: 8,
					Mutations: 12, WorkSteps: 2000,
				},
				SLO: workload.SLO{TargetMs: 2, DeadlineMs: 10},
			},
			{
				Name: "batch-ingest",
				Arrival: workload.Arrival{
					Law: workload.LawGamma, RatePerSec: 40, Shape: 0.7,
					Burst: &workload.Burst{OnMs: 200, OffMs: 100, OffFactor: 4},
				},
				Profile: workload.Profile{
					ObjsPerReq: 40, ObjWords: 64, RetainPct: 0.5,
					SessionWords: 256, SessionReqs: 4,
					Mutations: 48, WorkSteps: 20000,
				},
				SLO: workload.SLO{TargetMs: 20, DeadlineMs: 100},
			},
		},
	}
}

// RunServing materialises the standard serving spec and serves it under the
// naive-barrier and coalesced legs.
func RunServing(s Scale) (*workload.Section, error) {
	tr, err := workload.Generate(DefaultServeSpec(s))
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	sec, err := workload.RunLegs(tr, workload.StandardLegs())
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	return sec, nil
}
