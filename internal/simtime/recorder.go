package simtime

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PauseKind classifies a recorded collector pause.
type PauseKind int

// Pause kinds.
const (
	PauseMinor PauseKind = iota // a minor collection (or one increment of one)
	PauseMajor                  // a non-incremental major collection
	PauseOther                  // anything else (forced collections, flips)
)

var pauseKindNames = [...]string{"minor", "major", "other"}

// String returns the pause kind's name.
func (k PauseKind) String() string {
	if int(k) < len(pauseKindNames) {
		return pauseKindNames[k]
	}
	return fmt.Sprintf("pausekind(%d)", int(k))
}

// Phase identifies one attributable component of a collection pause. The
// phases mirror the paper's cost taxonomy: root scanning, mutation-log
// replay (CR), the copy/scan increment, the atomic flip (CF), and the
// degradation ladder's emergency rung.
type Phase uint8

// The pause phases.
const (
	PhaseRootScan   Phase = iota // scanning or redirecting mutator roots
	PhaseLogReplay               // consuming the mutation log (scan + reapply)
	PhaseCopy                    // replication copying and Cheney scanning
	PhaseFlip                    // atomically re-pointing roots and logged slots
	PhaseEmergency               // degradation-ladder escalation marker
	PhaseCheckpoint              // incremental snapshot copying / WAL commit
	NumPhases
)

var phaseNames = [NumPhases]string{
	"root-scan", "log-replay", "copy", "flip", "emergency", "checkpoint",
}

// String returns the phase's short name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Pause is one recorded stop-the-mutator interval: the one record of what a
// pause cost and where the time went. The collector fills it in as it works
// and every digest (Digest) reads it.
type Pause struct {
	At       Duration // simulated time at the start of the pause
	Length   Duration
	Kind     PauseKind
	CopiedB  int64 // bytes copied during the pause
	LogProcN int64 // log entries processed during the pause

	// PhaseTime and PhaseSpans divide the pause among its phases: the time
	// spent in each and how many times it was entered (an emergency mark is
	// a span of no length), filled in at the collector's one phase bracket.
	PhaseTime  [NumPhases]Duration
	PhaseSpans [NumPhases]int

	// Sync is the portion of the pause that requires every mutator to be
	// stopped — root scanning, flips and checkpoint commits. The rest of
	// the pause is replication work (copying, log replay) that the paper's
	// collector may overlap with mutators that did not trigger it. Single-
	// mutator collectors may leave it zero; multi-mutator accounting
	// (core.Group) treats a zero-Sync pause conservatively, stopping
	// everyone for the whole pause.
	Sync Duration

	// What the flip term of the pause bound is a formula over (DESIGN.md,
	// "Pause bound"): the flip-worklist entries re-pointed and the root slots
	// redirected by the flips of this pause. Zero for collectors that do not
	// count them.
	FlipEntries int64
	RootSlots   int64
	// LogLeft is the mutation-log entries still unprocessed when the pause
	// ended, every active collection's cursor counted: log replay stops with
	// the pause's budget and resumes at the next pause.
	LogLeft int64
	// Deferred marks a pause in which the admission gate put a completion
	// attempt off to a later pause (GCStats.Deferrals counts them): the
	// minor collection's when the pause flipped nothing, else the major flip.
	Deferred bool
	// Forced marks a pause that ran without a budget: a forced completion, an
	// emergency collection, a pause that ran a generation the configuration
	// does not make incremental, and every stop-and-copy pause. Such a pause
	// is outside the pause bound.
	Forced bool
	// Overrun is non-zero for a pause in which a completion attempt — a
	// collection's root passes and flip — ran to the end although the
	// admission gate said it did not fit (GCStats.Overruns counts them): the
	// one exemption from the pause bound among budgeted pauses. It holds the
	// attempts' known cost, which the pause's budget does not count.
	Overrun Duration
}

// Unbudgeted reports whether the pause is outside the pause bound: it ran
// without a budget, or let a completion attempt through over it.
func (p Pause) Unbudgeted() bool { return p.Forced || p.Overrun > 0 }

// Recorder accumulates the pauses of one benchmark run.
type Recorder struct {
	Pauses []Pause
}

// Record appends a pause.
func (r *Recorder) Record(p Pause) { r.Pauses = append(r.Pauses, p) }

// Durations returns the lengths of all pauses, in recording order.
func (r *Recorder) Durations() []Duration {
	out := make([]Duration, len(r.Pauses))
	for i, p := range r.Pauses {
		out[i] = p.Length
	}
	return out
}

// Percentile returns the p-th percentile (0 <= p <= 100) of pause lengths
// using nearest-rank on a sorted copy. It returns 0 when no pauses were
// recorded.
func (r *Recorder) Percentile(p float64) Duration {
	return Percentile(r.Durations(), p)
}

// Max returns the longest recorded pause (0 when none).
func (r *Recorder) Max() Duration {
	var m Duration
	for _, p := range r.Pauses {
		if p.Length > m {
			m = p.Length
		}
	}
	return m
}

// Percentile returns the p-th percentile of ds by nearest rank. The input
// is not modified. It returns 0 for an empty slice.
func Percentile(ds []Duration, p float64) Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return percentileSorted(sorted, p)
}

// Percentiles returns the nearest-rank percentile of ds for each p in ps,
// sorting once however many quantiles are asked for. Each result is exactly
// what Percentile(ds, p) returns; batch callers (the trace summary, the perf
// report, the serving engine's latency tails) use this form so a four-or-
// five-quantile digest costs one sort instead of one per quantile. An empty
// input yields all zeros.
func Percentiles(ds []Duration, ps ...float64) []Duration {
	out := make([]Duration, len(ps))
	if len(ds) == 0 {
		return out
	}
	sorted := make([]Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// microPercent is the resolution at which percentile arguments are
// interpreted: p is rounded to the nearest millionth of a percent before
// ranking. Quantiles are requested as decimal literals (95, 99.9), and the
// micro-percent grid represents every such literal exactly — float64 alone
// does not (float64(99.9) is 99.90000000000000568...), so ranking on the
// raw float would shift exact-boundary ranks by one.
const microPercent = 1_000_000

// percentileSorted is the shared nearest-rank rule over an already-sorted,
// non-empty slice: the p-th percentile is element ceil(p·n/100) (1-based),
// computed with exact integer arithmetic at micro-percent resolution. The
// previous implementation approximated the ceiling by adding a 0.999999
// epsilon before truncating, which under-ranked by one whenever the true
// fractional part of p·n/100 landed in (0, 1e-6) — a misreported tail, not
// a tie-break.
func percentileSorted(sorted []Duration, p float64) Duration {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	const denom = 100 * microPercent // micro-percents in the whole range
	pm := int64(math.Round(p * microPercent))
	rank := (pm*int64(len(sorted)) + denom - 1) / denom // exact ceil
	if rank < 1 {
		rank = 1 // p rounded to zero micro-percents: nearest rank is the minimum
	}
	if rank > int64(len(sorted)) {
		rank = int64(len(sorted))
	}
	return sorted[rank-1]
}

// Histogram buckets pause durations into fixed-width bins, mirroring the
// paper's figures 5 and 6.
type Histogram struct {
	BinWidth Duration
	Min      Duration // durations below Min are dropped
	Max      Duration // durations at or above Max land in the overflow bin
	Counts   []int
	Overflow int
}

// NewHistogram builds a histogram covering [min, max) with the given bin
// width. It panics when the parameters are inconsistent.
func NewHistogram(binWidth, min, max Duration) *Histogram {
	if binWidth <= 0 || max <= min {
		panic("simtime: invalid histogram bounds")
	}
	n := int((max - min + binWidth - 1) / binWidth)
	return &Histogram{BinWidth: binWidth, Min: min, Max: max, Counts: make([]int, n)}
}

// Add records one duration.
func (h *Histogram) Add(d Duration) {
	if d < h.Min {
		return
	}
	if d >= h.Max {
		h.Overflow++
		return
	}
	h.Counts[(d-h.Min)/h.BinWidth]++
}

// AddAll records every duration in ds.
func (h *Histogram) AddAll(ds []Duration) {
	for _, d := range ds {
		h.Add(d)
	}
}

// Render writes the histogram as fixed-width text rows: bin start, count,
// and a proportional bar. Empty leading/trailing bins are kept so series
// from different runs line up.
func (h *Histogram) Render(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", label)
	peak := h.Overflow
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		peak = 1
	}
	for i, c := range h.Counts {
		lo := h.Min + Duration(i)*h.BinWidth
		bar := strings.Repeat("#", c*50/peak)
		fmt.Fprintf(&b, "  %8s %6d %s\n", lo.String(), c, bar)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "  %7s+ %6d %s\n", h.Max.String(), h.Overflow,
			strings.Repeat("#", h.Overflow*50/peak))
	}
	return b.String()
}
