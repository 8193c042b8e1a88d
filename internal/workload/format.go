package workload

// Plain-text rendering of a serving section, for the CLI entry points.

import (
	"fmt"
	"strings"
)

// FormatSection renders a one-screen digest of a serving section: what the
// requests saw. What the runtime did is each leg's run report (Leg.Stats.Text).
func FormatSection(sec *Section) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- serving: %s (seed %d, %d requests over %.0f ms, trace %s) ---\n",
		sec.Spec, sec.Seed, sec.Requests, sec.DurationMs, sec.TraceFingerprint)
	for i := range sec.Legs {
		l := &sec.Legs[i]
		fmt.Fprintf(&b, "leg %-14s (%s): elapsed %.1f ms (%.1f ms idle)\n", l.Name, l.Run.Collector, l.ElapsedMs, l.IdleMs)
		fmt.Fprintf(&b, "  queue depth: mean %.2f, p99 %d, max %d; heap %s\n",
			l.Queue.MeanDepth, l.Queue.P99Depth, l.Queue.MaxDepth, l.HeapFingerprint)
		for j := range l.Cohorts {
			c := &l.Cohorts[j]
			fmt.Fprintf(&b, "  %-14s %5d reqs %4d sessions | p50 %7.3f p95 %7.3f p99 %7.3f p99.9 %7.3f max %7.3f ms\n",
				c.Name, c.Requests, c.Sessions,
				c.Latency.P50, c.Latency.P95, c.Latency.P99, c.Latency.P999, c.Latency.Max)
			fmt.Fprintf(&b, "  %-14s SLO(%.0f/%.0f ms): %d met, %d late, %d missed | gc intrusion %.1f%% of latency (p99 %.3f ms) | queue wait p99 %.3f ms\n",
				"", c.SLO.TargetMs, c.SLO.DeadlineMs, c.SLO.Met, c.SLO.Late, c.SLO.Missed,
				c.Intrusion.PctOfLatency, c.Intrusion.P99Ms, c.QueueWaitP99Ms)
		}
	}
	return b.String()
}
