package simtime

// The digest: everything a report says about a run's pauses — quantiles,
// utilization, the MMU curve, per-phase attribution, the log backlog, the
// worst pauses — as a function of the collector's own pause record
// (core.Collector.Pauses) and how long the run lasted. The MMU computation is
// exact, not sampled: it asks PauseIndex, the one pause-interval index, for
// the worst window.

import (
	"fmt"
	"math"
	"sort"
)

// MMUPoint is one point of an MMU curve, in the form every report embeds.
type MMUPoint struct {
	WindowMs    float64 `json:"window_ms"`
	Utilization float64 `json:"utilization"` // minimum mutator utilization over any such window
}

// Digest is the digest of one run's pause record.
type Digest struct {
	*Recorder                      // every pause, in order
	Span       Duration            // the run lasted from 0 to Span
	PhaseTime  [NumPhases]Duration // summed over the pauses
	PhaseSpans [NumPhases]int
	Copied     int64 // total bytes copied across pauses
	LogEntries int64 // total log entries processed across pauses
	LogBacklog int64 // the most log entries one pause left unprocessed (Pause.LogLeft)

	idx *PauseIndex
}

// Digest digests the record of a run that lasted from 0 to span (the clock
// when it finished). The record must not grow afterwards.
func (r *Recorder) Digest(span Duration) *Digest {
	d := &Digest{Recorder: r, Span: span, idx: NewPauseIndex(r.Pauses)}
	for i := range r.Pauses {
		p := &r.Pauses[i]
		for ph := range p.PhaseTime {
			d.PhaseTime[ph] += p.PhaseTime[ph]
			d.PhaseSpans[ph] += p.PhaseSpans[ph]
		}
		d.Copied += p.CopiedB
		d.LogEntries += p.LogProcN
		d.LogBacklog = max(d.LogBacklog, p.LogLeft)
	}
	return d
}

// TotalPause is the summed length of all pauses.
func (d *Digest) TotalPause() Duration { return d.idx.Total() }

// Utilization is the whole-run mutator utilization: the fraction of
// simulated time not spent in pauses.
func (d *Digest) Utilization() float64 {
	if d.Span <= 0 {
		return 1
	}
	return 1 - float64(d.TotalPause())/float64(d.Span)
}

// MMU returns the minimum mutator utilization over every window of length w
// inside the run. Windows at least as long as the whole run degenerate to
// the overall utilization; windows shorter than one pause are fully
// consumed.
func (d *Digest) MMU(w Duration) float64 {
	if w <= 0 {
		return 0
	}
	if w >= d.Span {
		return d.Utilization()
	}
	return max(1-float64(d.idx.MaxBusy(0, d.Span, w))/float64(w), 0)
}

// MMUCurve evaluates MMU at each window, in order.
func (d *Digest) MMUCurve(windows []Duration) []MMUPoint {
	var out []MMUPoint // nil, not empty, for no windows: reports marshal it
	for _, w := range windows {
		out = append(out, MMUPoint{WindowMs: w.Milliseconds(), Utilization: d.MMU(w)})
	}
	return out
}

// CheckMMUCurve rejects a curve MMUCurve cannot have produced: empty,
// windows not positive and strictly increasing, or a utilization outside
// [0, 1]. rig.Row.Check applies it to every run's "mmu" member.
func CheckMMUCurve(curve []MMUPoint) error {
	if len(curve) == 0 {
		return fmt.Errorf("mmu curve is empty")
	}
	lastW := 0.0
	for _, pt := range curve {
		if math.IsNaN(pt.WindowMs) || pt.WindowMs <= lastW {
			return fmt.Errorf("mmu windows are not positive and strictly increasing (%v after %v)",
				pt.WindowMs, lastW)
		}
		lastW = pt.WindowMs
		if math.IsNaN(pt.Utilization) || pt.Utilization < 0 || pt.Utilization > 1 {
			return fmt.Errorf("mmu(%v ms) = %v outside [0, 1]", pt.WindowMs, pt.Utilization)
		}
	}
	return nil
}

// Measure is one named number of a report, for CheckNonNegative. (An alias of
// an unnamed struct, so callers may list measures as {"name", v}.)
type Measure = struct {
	Name  string
	Value float64
}

// CheckNonNegative rejects the first measure that is not a finite
// non-negative number. Every report validator applies it to its plain
// numbers.
func CheckNonNegative(ms []Measure) error {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			return fmt.Errorf("%s = %v is not a finite non-negative number", m.Name, m.Value)
		}
	}
	return nil
}

// StandardWindows is the default MMU window ladder: 1 ms to 10 s in a
// 1-2-5 progression, truncated to windows shorter than the run, with the
// run's length itself as the final point.
func (d *Digest) StandardWindows() []Duration {
	var out []Duration
	for _, ms := range []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000} {
		w := Duration(ms) * Millisecond
		if w >= d.Span {
			break
		}
		out = append(out, w)
	}
	if d.Span > 0 {
		out = append(out, d.Span)
	}
	return out
}

// WorstPauses returns the positions in the record of the k longest pauses,
// longest first (earlier first among equals): the answer to "which phase was
// it".
func (d *Digest) WorstPauses(k int) []int {
	order := make([]int, len(d.Pauses))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return d.Pauses[order[i]].Length > d.Pauses[order[j]].Length })
	return order[:min(max(k, 0), len(order))]
}

// WorstPausesTable renders WorstPauses(k), one pause a line, phase times in
// milliseconds; "log left" is the log entries the pause left unprocessed,
// "flip n" the flip-worklist entries it re-pointed and "cause" why it ran.
func (d *Digest) WorstPausesTable(k int) string {
	worst := d.WorstPauses(k)
	s := fmt.Sprintf("worst %d of %d pauses:\n%6s %12s %9s", len(worst), len(d.Pauses), "pause", "at", "ms")
	for p := Phase(0); p < NumPhases; p++ {
		s += fmt.Sprintf(" %10s", p)
	}
	s += fmt.Sprintf(" %10s %8s %8s %8s  %s\n", "copied B", "log n", "log left", "flip n", "cause")
	for _, i := range worst {
		p := &d.Pauses[i]
		s += fmt.Sprintf("%6d %12v %9.3f", i, p.At, p.Length.Milliseconds())
		for _, t := range p.PhaseTime {
			s += fmt.Sprintf(" %10.3f", t.Milliseconds())
		}
		s += fmt.Sprintf(" %10d %8d %8d %8d  %v\n", p.CopiedB, p.LogProcN, p.LogLeft, p.FlipEntries, p.Cause)
	}
	return s
}

// Summary renders the digest one fact a line, in the layout of the run report
// it is part of (rig.Stats.Text): the pauses' count, total and quantiles,
// utilization, the MMU curve over windows, per-phase attribution, and
// throughput (bytes copied and log entries consumed per unit of pause time).
func (d *Digest) Summary(windows []Duration) string {
	tp := d.TotalPause()
	s := fmt.Sprintf("pauses             %d, total %v", len(d.Pauses), tp)
	if len(d.Pauses) > 0 {
		q := Percentiles(d.Durations(), 50, 90, 95, 99, 100)
		s += fmt.Sprintf(": p50 %v  p90 %v  p95 %v  p99 %v  max %v", q[0], q[1], q[2], q[3], q[4])
	}
	s += fmt.Sprintf("\nutilization        %.1f%%\nMMU               ", 100*d.Utilization())
	for _, w := range windows {
		s += fmt.Sprintf(" %v=%.1f%%", w, 100*d.MMU(w))
	}
	s += "\n"
	for p := Phase(0); p < NumPhases; p++ {
		if d.PhaseSpans[p] == 0 {
			continue
		}
		pct := 0.0
		if tp > 0 {
			pct = 100 * float64(d.PhaseTime[p]) / float64(tp)
		}
		s += fmt.Sprintf("phase %-12s %v over %d spans, %.1f%% of pause time\n", p, d.PhaseTime[p], d.PhaseSpans[p], pct)
	}
	copyMBps, logPerMs := 0.0, 0.0
	if tp > 0 {
		copyMBps = float64(d.Copied) / (1 << 20) / tp.Seconds()
		logPerMs = float64(d.LogEntries) / tp.Milliseconds()
	}
	return s + fmt.Sprintf("throughput         copy %.2f MB/s of pause, log %.1f entries/ms of pause\n", copyMBps, logPerMs)
}
