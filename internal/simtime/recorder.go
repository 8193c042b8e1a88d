package simtime

import (
	"fmt"
	"math"
	"slices"
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
// replay (CR), the copy/scan increment, the atomic flip (CF), and checkpoint
// persistence. A pause's time is divided among them by the account each unit
// of its work is charged to (Account.Phase).
type Phase uint8

// The pause phases.
const (
	PhaseRootScan   Phase = iota // scanning mutator roots
	PhaseLogReplay               // consuming the mutation log (scan + reapply)
	PhaseCopy                    // replication copying and Cheney scanning
	PhaseFlip                    // atomically re-pointing roots and logged slots
	PhaseCheckpoint              // incremental snapshot copying / WAL commit
	NumPhases
)

var phaseNames = [NumPhases]string{
	"root-scan", "log-replay", "copy", "flip", "checkpoint",
}

// String returns the phase's short name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Cause says why a pause ran: the entry that opened it, in the low three bits,
// and a bit for each site in it that lifted the budget, put a completion
// attempt off or committed a checkpoint epoch.
type Cause uint16

// The entries, one per way into a pause.
const (
	EntryAlloc       Cause = iota // CollectForAlloc: an allocation found no room
	_                             // retired: keeps the entries below, and the trace bytes that name them, where they were
	EntryFinish                   // FinishCycles: the run drives its cycles home
	EntryEmergency                // CollectEmergency: a failed direct allocation
	EntryCheckpoint               // CheckpointPause: a checkpoint writer's final commit
	EntrySCAlloc                  // stop-and-copy's CollectForAlloc
	EntrySCEmergency              // stop-and-copy's CollectEmergency
)

// The bits (DESIGN.md, "Pause bound", names the lift sites).
const (
	LiftEmergency Cause = 8 << iota // the emergency rung ran: entered, or escalated on low headroom
	LiftMinor                       // a forced minor increment
	LiftMajor                       // a forced major increment
	LiftOverrun                     // the gate let a completion attempt through over budget
	LiftFlip                        // the steps that end in a flip
	Deferral                        // the gate put a completion attempt off
	Commit                          // a checkpoint epoch committed
	entryMask     Cause = 7         // the entry's bits
)

var entryNames = [entryMask + 1]string{"alloc", "", "finish", "collect-emergency", "checkpoint", "sc-alloc", "sc-emergency"}

var bitNames = [...]string{"emergency", "forced-minor", "forced-major", "overrun", "flip", "deferred", "committed"}

// Emergency reports whether the degradation ladder's emergency rung ran.
func (c Cause) Emergency() bool { return c&LiftEmergency != 0 }

// Exclusive reports whether the pause stopped every mutator throughout: an
// emergency, a checkpoint writer's final commit, every stop-and-copy pause.
func (c Cause) Exclusive() bool {
	return c.Emergency() || c&entryMask == EntryCheckpoint || c&entryMask >= EntrySCAlloc
}

// Forced reports whether the pause ran without a budget, which puts it outside
// the pause bound: it was Exclusive, forced a generation's increment or
// committed a checkpoint epoch.
func (c Cause) Forced() bool { return c.Exclusive() || c&(LiftMinor|LiftMajor|Commit) != 0 }

// Deferred reports whether the admission gate put a completion attempt off.
func (c Cause) Deferred() bool { return c&Deferral != 0 }

// String spells the cause as its entry and its bits, joined by "+".
func (c Cause) String() string {
	s := entryNames[c&entryMask]
	for i, name := range bitNames {
		if c&(LiftEmergency<<i) != 0 {
			s += "+" + name
		}
	}
	return s
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
	// charged to each phase's accounts and how many spans of it the pause
	// ran. They sum to Length.
	PhaseTime  [NumPhases]Duration
	PhaseSpans [NumPhases]int

	// Sync is the portion of the pause that requires every mutator to be
	// stopped: its root-scan, flip and checkpoint time, or all of it when
	// the cause is Exclusive. The rest of the pause is replication work
	// (copying, log replay) that the paper's collector may overlap with
	// mutators that did not trigger it; multi-mutator accounting
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
	// Cause says why the pause ran and what in it ran without a budget.
	Cause Cause
	// Overrun is non-zero for a pause in which a completion attempt — a
	// collection's root passes and flip — ran to the end although the
	// admission gate said it did not fit (GCStats.Overruns counts them): the
	// one exemption from the pause bound among budgeted pauses. It holds the
	// attempts' known cost, which the pause's budget does not count.
	Overrun Duration
}

// Unbudgeted reports whether the pause is outside the pause bound: it ran
// without a budget, or let a completion attempt through over it.
func (p Pause) Unbudgeted() bool { return p.Cause.Forced() || p.Overrun > 0 }

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
func Percentile(ds []Duration, p float64) Duration { return Percentiles(ds, p)[0] }

// microPercent is the resolution at which percentile arguments are
// interpreted: p is rounded to the nearest millionth of a percent before
// ranking. Quantiles are requested as decimal literals (95, 99.9), and the
// micro-percent grid represents every such literal exactly — float64 alone
// does not (float64(99.9) is 99.90000000000000568...), so ranking on the
// raw float would shift exact-boundary ranks by one.
const microPercent = 1_000_000

// Percentiles returns the nearest-rank percentile of ds for each p in ps,
// sorting once however many quantiles are asked for; batch callers (the
// trace summary, the perf report, the serving engine's latency tails) use
// this form so a four-or-five-quantile digest costs one sort instead of one
// per quantile. An empty input yields all zeros.
//
// The p-th percentile is element ceil(p·n/100) (1-based) of the sorted
// input, computed with exact integer arithmetic at micro-percent
// resolution: approximating the ceiling by adding an epsilon before
// truncating under-ranks by one whenever the true fractional part of
// p·n/100 lands below the epsilon — a misreported tail, not a tie-break.
func Percentiles(ds []Duration, ps ...float64) []Duration {
	out := make([]Duration, len(ps))
	if len(ds) == 0 {
		return out
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	n := int64(len(sorted))
	const denom = 100 * microPercent // micro-percents in the whole range
	for i, p := range ps {
		switch {
		case p <= 0:
			out[i] = sorted[0]
		case p >= 100:
			out[i] = sorted[n-1]
		default:
			// p rounded to zero micro-percents ranks the minimum.
			rank := (int64(math.Round(p*microPercent))*n + denom - 1) / denom // exact ceil
			out[i] = sorted[max(rank, 1)-1]
		}
	}
	return out
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
