package trace

// The analysis layer: everything computed over a recorded trace. Pause
// quantiles reuse simtime.Percentile — the one tested quantile
// implementation in the repository — and the MMU computation is exact, not
// sampled: it asks simtime.PauseIndex, the one pause-interval index, for the
// worst window.

import (
	"fmt"
	"math"
	"sort"

	"repligc/internal/simtime"
)

// MMUPoint is one point of an MMU curve, in the form every report embeds.
type MMUPoint struct {
	WindowMs    float64 `json:"window_ms"`
	Utilization float64 `json:"utilization"` // minimum mutator utilization over any such window
}

// Analysis is the digest of one trace.
type Analysis struct {
	Start, End simtime.Duration // first and last event timestamps
	Pauses     []simtime.Pause  // every closed pause, in order
	PhaseTime  [NumPhases]simtime.Duration
	PhaseCount [NumPhases]int
	Copied     int64 // total bytes copied across pauses
	LogEntries int64 // total log entries processed across pauses

	idx    *simtime.PauseIndex           // over Pauses
	phases [][NumPhases]simtime.Duration // per-pause phase time, parallel to Pauses
}

// Analyze validates events and digests them. The trace must be well-formed
// (Validate); a trimmed Recorder.Events slice always is.
func Analyze(events []Event) (*Analysis, error) {
	if err := Validate(events); err != nil {
		return nil, err
	}
	a := &Analysis{}
	if len(events) > 0 {
		a.Start, a.End = events[0].At, events[len(events)-1].At
	}
	var pauseStart, phaseStart simtime.Duration
	var inPause [NumPhases]simtime.Duration
	for _, e := range events {
		switch e.Kind {
		case KindPauseBegin:
			pauseStart = e.At
			inPause = [NumPhases]simtime.Duration{}
		case KindPauseEnd:
			a.Pauses = append(a.Pauses, simtime.Pause{
				At: pauseStart, Length: e.At - pauseStart,
				Kind: simtime.PauseKind(e.C), CopiedB: e.A, LogProcN: e.B,
			})
			a.phases = append(a.phases, inPause)
			a.Copied += e.A
			a.LogEntries += e.B
		case KindPhaseBegin:
			phaseStart = e.At
		case KindPhaseEnd:
			a.PhaseTime[e.Phase] += e.At - phaseStart
			a.PhaseCount[e.Phase]++
			inPause[e.Phase] += e.At - phaseStart
		}
	}
	a.idx = simtime.NewPauseIndex(a.Pauses)
	return a, nil
}

// Annotate completes the trace's pauses from the collector's own pause record
// (Collector.Pauses): the pause-end event carries three words, so the
// stop-the-world part, what the pause bound is a formula over — flip-worklist
// entries, root slots, the log left unprocessed — and the forced and overrun
// marks live only there. Pauses are matched by start time (the two were stamped by
// one clock, so a match agrees on everything the trace knows); one the record
// does not hold — a checkpoint commit outside any collection pause — stays
// as it is.
func (a *Analysis) Annotate(record []simtime.Pause) {
	for i, p := range a.Pauses {
		j := sort.Search(len(record), func(j int) bool { return record[j].At >= p.At })
		if j < len(record) && record[j].At == p.At && record[j].Length == p.Length {
			a.Pauses[i] = record[j]
		}
	}
}

// PauseDetail is one pause with what the recorder knows about it: where it
// sits in the run, what it copied and consumed (Pause.CopiedB, LogProcN),
// after Annotate what its flips re-pointed, and how its length divides among
// the phases.
type PauseDetail struct {
	Index int // position among the trace's pauses, from 0
	simtime.Pause
	Phases [NumPhases]simtime.Duration
}

// WorstPauses returns the k longest pauses, longest first (earlier first
// among equals): the answer to "which phase was it".
func (a *Analysis) WorstPauses(k int) []PauseDetail {
	order := make([]int, len(a.Pauses))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return a.Pauses[order[i]].Length > a.Pauses[order[j]].Length })
	out := make([]PauseDetail, min(max(k, 0), len(order)))
	for i := range out {
		out[i] = PauseDetail{Index: order[i], Pause: a.Pauses[order[i]], Phases: a.phases[order[i]]}
	}
	return out
}

// WorstPausesTable renders WorstPauses(k), one pause a line, phase times in
// milliseconds; "log left" is the log entries the pause left unprocessed and
// "flip n" the flip-worklist entries it re-pointed (Annotate).
func WorstPausesTable(a *Analysis, k int) string {
	s := fmt.Sprintf("worst %d of %d pauses:\n%6s %12s %9s", min(max(k, 0), len(a.Pauses)), len(a.Pauses), "pause", "at", "ms")
	for p := Phase(0); p < NumPhases; p++ {
		s += fmt.Sprintf(" %10s", p)
	}
	s += fmt.Sprintf(" %10s %8s %8s %8s\n", "copied B", "log n", "log left", "flip n")
	for _, d := range a.WorstPauses(k) {
		s += fmt.Sprintf("%6d %12v %9.3f", d.Index, d.At, d.Length.Milliseconds())
		for _, t := range d.Phases {
			s += fmt.Sprintf(" %10.3f", t.Milliseconds())
		}
		s += fmt.Sprintf(" %10d %8d %8d %8d\n", d.CopiedB, d.LogProcN, d.LogLeft, d.FlipEntries)
	}
	return s
}

// Total is the simulated span the trace covers.
func (a *Analysis) Total() simtime.Duration { return a.End - a.Start }

// TotalPause is the summed length of all pauses.
func (a *Analysis) TotalPause() simtime.Duration { return a.idx.Total() }

// Utilization is the whole-run mutator utilization: the fraction of
// simulated time not spent in pauses.
func (a *Analysis) Utilization() float64 {
	if a.Total() <= 0 {
		return 1
	}
	return 1 - float64(a.TotalPause())/float64(a.Total())
}

// PauseDurations returns every pause length in recording order.
func (a *Analysis) PauseDurations() []simtime.Duration {
	out := make([]simtime.Duration, len(a.Pauses))
	for i, p := range a.Pauses {
		out[i] = p.Length
	}
	return out
}

// PauseQuantiles returns the percentile pause for each p in ps, sorting the
// pause durations once (simtime.Percentiles — the batch form of the shared
// quantile implementation).
func (a *Analysis) PauseQuantiles(ps ...float64) []simtime.Duration {
	return simtime.Percentiles(a.PauseDurations(), ps...)
}

// MMU returns the minimum mutator utilization over every window of length w
// inside the trace. Windows at least as long as the whole trace degenerate
// to the overall utilization; windows shorter than one pause are fully
// consumed.
func (a *Analysis) MMU(w simtime.Duration) float64 {
	if w <= 0 {
		return 0
	}
	if w >= a.Total() {
		return a.Utilization()
	}
	return max(1-float64(a.idx.MaxBusy(a.Start, a.End, w))/float64(w), 0)
}

// MMUCurve evaluates MMU at each window, in order.
func (a *Analysis) MMUCurve(windows []simtime.Duration) []MMUPoint {
	var out []MMUPoint // nil, not empty, for no windows: reports marshal it
	for _, w := range windows {
		out = append(out, MMUPoint{WindowMs: w.Milliseconds(), Utilization: a.MMU(w)})
	}
	return out
}

// CheckMMUCurve rejects a curve MMUCurve cannot have produced: empty,
// windows not positive and strictly increasing, or a utilization outside
// [0, 1]. Every report validator applies it to its "mmu" member.
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

// StandardWindows is the default MMU window ladder: 1 ms to 10 s in a
// 1-2-5 progression, truncated to windows shorter than the trace, with the
// trace length itself as the final point.
func (a *Analysis) StandardWindows() []simtime.Duration {
	var out []simtime.Duration
	for _, ms := range []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000} {
		w := simtime.Duration(ms) * simtime.Millisecond
		if w >= a.Total() {
			break
		}
		out = append(out, w)
	}
	if t := a.Total(); t > 0 {
		out = append(out, t)
	}
	return out
}

// CopyMBps is replication throughput: bytes copied per second of pause time.
func (a *Analysis) CopyMBps() float64 {
	if a.TotalPause() <= 0 {
		return 0
	}
	return float64(a.Copied) / (1 << 20) / a.TotalPause().Seconds()
}

// LogEntriesPerMs is log-processing throughput: entries consumed per
// millisecond of pause time.
func (a *Analysis) LogEntriesPerMs() float64 {
	if a.TotalPause() <= 0 {
		return 0
	}
	return float64(a.LogEntries) / a.TotalPause().Milliseconds()
}

// Summary renders a one-screen plain-text digest: pause quantiles, MMU
// ladder, per-phase attribution, and throughput. dropped is the recorder's
// eviction count, surfaced so a truncated trace cannot masquerade as a
// complete one.
func Summary(label string, a *Analysis, dropped int64) string {
	s := fmt.Sprintf("--- trace: %s ---\n", label)
	s += fmt.Sprintf("span %v, %d pauses (total %v, utilization %.1f%%)\n",
		a.Total(), len(a.Pauses), a.TotalPause(), 100*a.Utilization())
	if dropped > 0 {
		s += fmt.Sprintf("WARNING: ring dropped %d events; figures describe the retained suffix\n", dropped)
	}
	if len(a.Pauses) > 0 {
		q := a.PauseQuantiles(50, 90, 95, 99, 100)
		s += fmt.Sprintf("pause p50 %v  p90 %v  p95 %v  p99 %v  max %v\n",
			q[0], q[1], q[2], q[3], q[4])
	}
	s += "MMU:"
	for _, w := range a.StandardWindows() {
		s += fmt.Sprintf("  %v %.1f%%", w, 100*a.MMU(w))
	}
	s += "\nphases:\n"
	for p := Phase(0); p < NumPhases; p++ {
		if a.PhaseCount[p] == 0 {
			continue
		}
		pct := 0.0
		if tp := a.TotalPause(); tp > 0 {
			pct = 100 * float64(a.PhaseTime[p]) / float64(tp)
		}
		s += fmt.Sprintf("  %-10s %4d spans %10v (%5.1f%% of pause time)\n",
			p, a.PhaseCount[p], a.PhaseTime[p], pct)
	}
	s += fmt.Sprintf("throughput: copy %.2f MB/s of pause, log %.1f entries/ms of pause\n",
		a.CopyMBps(), a.LogEntriesPerMs())
	return s
}
