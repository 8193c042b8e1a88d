package workload

// The serving report: what one trace, served by one or more collector legs,
// did to request latency. This is the repligc-bench "serving" section
// (introduced in /5) — internal/bench embeds a Section in its PerfReport,
// and cmd/rtgc-bench can also emit a standalone Report from
// `rtgc-bench serve`.

import (
	"encoding/json"
	"fmt"

	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// ReportSchema identifies the serving report layout. It shares the
// repligc-bench lineage (/5 was /4 plus the serving section; /6 adds the
// multi-mutator section; /7 removes the perf report's two host ns/op
// sections; /8 removes the multi-mutator legs' merged_entries and
// merge_dropped; /9 reports every run as one rig.Row; /10 removes the
// multi-mutator section), so bench.PerfSchema aliases this constant.
const ReportSchema = "repligc-bench/10"

// Report is the standalone document `rtgc-bench serve` emits.
type Report struct {
	Schema  string  `json:"schema"`
	Serving Section `json:"serving"`
}

// Section describes one trace served by one or more legs.
type Section struct {
	Spec             string  `json:"spec"` // spec name
	Seed             uint64  `json:"seed"`
	DurationMs       float64 `json:"duration_ms"`
	Requests         int     `json:"requests"`
	TraceFingerprint string  `json:"trace_fingerprint"` // hex of Trace.Fingerprint
	Legs             []Leg   `json:"legs"`
}

// Leg is one collector configuration serving the whole trace.
type Leg struct {
	Name string `json:"name"` // e.g. "coalesced", "naive-barrier"

	ElapsedMs float64 `json:"elapsed_ms"` // simulated completion time of the last request
	IdleMs    float64 `json:"idle_ms"`    // server idle time (AcctIdle)
	Requests  int     `json:"requests"`

	// HeapFingerprint digests the reachable session graph at end of run
	// (semantic walk, so it is identical across collectors serving the same
	// trace correctly).
	HeapFingerprint string `json:"heap_fingerprint"`

	Queue QueueStats `json:"queue"`

	Cohorts []CohortMetrics `json:"cohorts"`

	// Run is the run's report, closing pauses included. Its MMU curve is at
	// request granularity: the standard window ladder merged with every
	// cohort's SLO target, so each SLO can be read off directly against the
	// worst window it could land in.
	Run rig.Row `json:"run"`
	// Stats is what Run is the JSON form of, for the text report; a decoded
	// leg has none.
	Stats rig.Stats `json:"-"`
}

// QueueStats summarises the open-loop queue, sampled at each request's
// service start.
type QueueStats struct {
	MeanDepth float64 `json:"mean_depth"`
	P99Depth  int     `json:"p99_depth"`
	MaxDepth  int     `json:"max_depth"`
}

// CohortMetrics is one cohort's serving outcome on one leg.
type CohortMetrics struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	Sessions int    `json:"sessions"`

	Latency Latency `json:"latency_ms"`

	// QueueWaitP99Ms is the tail of time spent waiting behind earlier
	// requests (arrival to service start).
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`

	Intrusion Intrusion    `json:"gc_intrusion"`
	SLO       SLOBreakdown `json:"slo"`
}

// Latency is a latency digest in milliseconds.
type Latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// Intrusion attributes GC pause time to requests: for each request, the
// pause time overlapping [arrival, completion] — the delay GC imposed on it
// while it was queued or in flight.
type Intrusion struct {
	TotalMs      float64 `json:"total_ms"`
	P99Ms        float64 `json:"p99_ms"`
	PctOfLatency float64 `json:"pct_of_latency"` // total intrusion / total latency
}

// SLOBreakdown classifies the cohort's requests against its SLO.
type SLOBreakdown struct {
	TargetMs   float64 `json:"target_ms"`
	DeadlineMs float64 `json:"deadline_ms"`
	Met        int     `json:"met"`    // latency <= target
	Late       int     `json:"late"`   // target < latency <= deadline
	Missed     int     `json:"missed"` // latency > deadline
}

// ValidateReport checks that data parses as a serving report with the
// current schema and an internally-consistent serving section. Shape and
// sanity only — never thresholds on the measurements.
func ValidateReport(data []byte) error {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("serving report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return fmt.Errorf("serving report: schema %q, want %q", rep.Schema, ReportSchema)
	}
	return rep.Serving.Check()
}

// Check rejects serving sections with impossible measurements.
func (s *Section) Check() error {
	if s.Spec == "" {
		return fmt.Errorf("serving: spec name is empty")
	}
	if s.Requests <= 0 {
		return fmt.Errorf("serving: no requests")
	}
	if s.TraceFingerprint == "" {
		return fmt.Errorf("serving: trace fingerprint is empty")
	}
	if len(s.Legs) == 0 {
		return fmt.Errorf("serving: no legs")
	}
	for i := range s.Legs {
		if err := s.Legs[i].check(s.Requests); err != nil {
			return fmt.Errorf("serving leg %s: %w", s.Legs[i].Name, err)
		}
	}
	return nil
}

func (l *Leg) check(requests int) error {
	if l.Name == "" {
		return fmt.Errorf("leg name is required")
	}
	if l.Requests != requests {
		return fmt.Errorf("served %d of %d requests", l.Requests, requests)
	}
	if err := l.Run.Check(); err != nil {
		return err
	}
	if err := simtime.CheckNonNegative([]simtime.Measure{
		{"elapsed_ms", l.ElapsedMs}, {"idle_ms", l.IdleMs}, {"queue mean_depth", l.Queue.MeanDepth},
	}); err != nil {
		return err
	}
	if l.HeapFingerprint == "" {
		return fmt.Errorf("heap fingerprint is empty")
	}
	if l.Queue.MaxDepth < l.Queue.P99Depth || l.Queue.P99Depth < 0 {
		return fmt.Errorf("queue depths are not monotone (p99 %d, max %d)", l.Queue.P99Depth, l.Queue.MaxDepth)
	}
	if len(l.Cohorts) == 0 {
		return fmt.Errorf("no cohort metrics")
	}
	total := 0
	for i := range l.Cohorts {
		c := &l.Cohorts[i]
		if c.Name == "" {
			return fmt.Errorf("cohort %d has no name", i)
		}
		if c.Requests < 0 {
			return fmt.Errorf("cohort %s: negative request count", c.Name)
		}
		total += c.Requests
		lat := c.Latency
		if err := simtime.CheckNonNegative([]simtime.Measure{
			{"p50", lat.P50}, {"p95", lat.P95}, {"p99", lat.P99},
			{"p999", lat.P999}, {"max", lat.Max}, {"mean", lat.Mean},
			{"queue_wait_p99_ms", c.QueueWaitP99Ms},
			{"gc_intrusion total_ms", c.Intrusion.TotalMs},
			{"gc_intrusion p99_ms", c.Intrusion.P99Ms},
		}); err != nil {
			return fmt.Errorf("cohort %s: %w", c.Name, err)
		}
		if lat.P50 > lat.P95 || lat.P95 > lat.P99 || lat.P99 > lat.P999 || lat.P999 > lat.Max {
			return fmt.Errorf("cohort %s: latency percentiles are not monotone", c.Name)
		}
		if c.SLO.Met+c.SLO.Late+c.SLO.Missed != c.Requests {
			return fmt.Errorf("cohort %s: SLO classes sum to %d of %d requests",
				c.Name, c.SLO.Met+c.SLO.Late+c.SLO.Missed, c.Requests)
		}
	}
	if total != requests {
		return fmt.Errorf("cohort requests sum to %d of %d", total, requests)
	}
	return nil
}
