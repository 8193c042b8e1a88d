package simtime

// The pause-interval index: the one place that answers "how much pause time
// falls in this interval" and "which window of width w is worst". Every
// consumer of pause intervals goes through it — MMUFromPauses below,
// Digest.MMU, and the serving engine's per-request intrusion attribution — so
// the bound the paper's evaluation rests on is defined once. The kernel is
// integer: it returns pause time in clock ticks, and each caller turns that
// into its own ratio. (MMUFromPauses, which the frozen benchmark calls for
// sim_mmu_1s, finishes with (w-busy)/w and Digest.MMU with 1-busy/w; the two
// disagree in the last bit on about four in ten inputs, so making one call
// the other would move committed numbers.)

import "sort"

// PauseIndex answers busy-time queries over a fixed list of pauses in
// O(log n) by prefix sums.
type PauseIndex struct {
	ps  []Pause    // non-overlapping, in chronological order
	cum []Duration // cum[i]: total length of ps[:i]
}

// NewPauseIndex indexes pauses, which must be non-overlapping and in
// chronological order. It keeps the slice; the caller must not change it.
func NewPauseIndex(pauses []Pause) *PauseIndex {
	x := &PauseIndex{ps: pauses, cum: make([]Duration, len(pauses)+1)}
	for i, p := range pauses {
		x.cum[i+1] = x.cum[i] + p.Length
	}
	return x
}

// Total is the summed length of all pauses.
func (x *PauseIndex) Total() Duration { return x.cum[len(x.ps)] }

// BusyBefore is the total pause time in (-inf, t).
func (x *PauseIndex) BusyBefore(t Duration) Duration {
	i := sort.Search(len(x.ps), func(i int) bool { return x.ps[i].At+x.ps[i].Length > t })
	b := x.cum[i]
	if i < len(x.ps) && x.ps[i].At < t {
		b += t - x.ps[i].At
	}
	return b
}

// Between is the pause time overlapping [a, b].
func (x *PauseIndex) Between(a, b Duration) Duration {
	if b <= a {
		return 0
	}
	return x.BusyBefore(b) - x.BusyBefore(a)
}

// MaxBusy is the most pause time any window [s, s+w] inside [lo, hi] holds,
// for 0 < w <= hi-lo. Busy time as a function of s is piecewise linear and
// peaks only where a window edge meets a pause edge, so trying a window
// starting at each pause start and one ending at each pause end (clamped into
// the interval), plus the two extremes, is exact.
func (x *PauseIndex) MaxBusy(lo, hi, w Duration) Duration {
	var worst Duration
	try := func(s Duration) {
		s = min(max(s, lo), hi-w)
		if b := x.Between(s, s+w); b > worst {
			worst = b
		}
	}
	try(lo)
	try(hi - w)
	for _, p := range x.ps {
		try(p.At)
		try(p.At + p.Length - w)
	}
	return worst
}

// MMUFromPauses reports the minimum mutator utilization over every window
// of width w inside [0, total]: the smallest fraction of any such window
// that was not covered by a pause. It is the form for a pause list that is
// not a collector's record in order — in particular the multi-mutator group
// timeline, whose all-stopped intervals core.Group synthesizes. Pauses must
// be non-overlapping; they are sorted internally.
// Degenerate inputs (no pauses, or a non-positive window or total) report
// full utilization.
func MMUFromPauses(pauses []Pause, total, w Duration) float64 {
	if len(pauses) == 0 || w <= 0 || total <= 0 {
		return 1
	}
	w = min(w, total)
	ps := make([]Pause, len(pauses))
	copy(ps, pauses)
	// By start, then length: an empty pause sharing a start with a real one
	// must precede it for the ends to be in order too.
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].At != ps[j].At {
			return ps[i].At < ps[j].At
		}
		return ps[i].Length < ps[j].Length
	})
	stopped := min(NewPauseIndex(ps).MaxBusy(0, total, w), w)
	return float64(w-stopped) / float64(w)
}
