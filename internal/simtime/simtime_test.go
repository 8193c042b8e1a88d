package simtime

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClockChargeAccumulates(t *testing.T) {
	c := NewClock()
	c.Charge(AcctMutator, 10*Millisecond)
	c.Charge(AcctAlloc, 5*Millisecond)
	if got := c.Now(); got != 15*Millisecond {
		t.Fatalf("Now = %v, want 15ms", got)
	}
	if got := c.AccountTotal(AcctMutator); got != 10*Millisecond {
		t.Fatalf("mutator account = %v, want 10ms", got)
	}
	if got := c.AccountTotal(AcctAlloc); got != 5*Millisecond {
		t.Fatalf("alloc account = %v, want 5ms", got)
	}
}

func TestClockIgnoresNonPositiveCharges(t *testing.T) {
	c := NewClock()
	c.Charge(AcctMutator, 0)
	c.Charge(AcctMutator, -5)
	if c.Now() != 0 {
		t.Fatalf("Now = %v, want 0", c.Now())
	}
}

func TestClockPauseAccrual(t *testing.T) {
	c := NewClock()
	c.Charge(AcctMutator, Second)
	c.BeginPause()
	c.Charge(AcctMinorCopy, 30*Millisecond)
	c.Charge(AcctFlip, 4*Millisecond)
	if got := c.EndPause(); got != 34*Millisecond {
		t.Fatalf("pause length = %v, want 34ms", got)
	}
}

func TestClockPausePanics(t *testing.T) {
	c := NewClock()
	mustPanic(t, func() { c.EndPause() })
	c.BeginPause()
	mustPanic(t, func() { c.BeginPause() })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{1500 * Nanosecond, "1.5us"},
		{50 * Millisecond, "50.0ms"},
		{2 * Second, "2.00s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDefault1993Calibration(t *testing.T) {
	m := Default1993()
	rate := m.CopyRateBytesPerSec()
	// The paper measures a copying rate of about 2 MB/s, so that the
	// L = 100 KB budget corresponds to a 50 ms pause.
	if rate < 1.8e6 || rate > 2.2e6 {
		t.Fatalf("copy rate = %.0f B/s, want about 2e6", rate)
	}
	perWord := m.CopyWord + m.ScanWord
	budget := Duration(100<<10/BytesPerWord) * perWord
	if budget < 45*Millisecond || budget > 55*Millisecond {
		t.Fatalf("100KB budget = %v, want about 50ms", budget)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []Duration{50, 10, 40, 20, 30}
	if got := Percentile(ds, 50); got != 30 {
		t.Fatalf("p50 = %v, want 30", got)
	}
	if got := Percentile(ds, 99); got != 50 {
		t.Fatalf("p99 = %v, want 50", got)
	}
	if got := Percentile(ds, 0); got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	// Input must not be reordered.
	if ds[0] != 50 || ds[4] != 30 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]Duration, len(raw))
		var max, min Duration = 0, 1 << 62
		for i, r := range raw {
			ds[i] = Duration(r)
			if ds[i] > max {
				max = ds[i]
			}
			if ds[i] < min {
				min = ds[i]
			}
		}
		p50 := Percentile(ds, 50)
		p99 := Percentile(ds, 99)
		return p50 >= min && p50 <= p99 && p99 <= max && Percentile(ds, 100) == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Record(Pause{Length: 10 * Millisecond, Kind: PauseMinor})
	r.Record(Pause{Length: 90 * Millisecond, Kind: PauseMajor})
	r.Record(Pause{Length: 20 * Millisecond, Kind: PauseMinor})
	if got := r.Max(); got != 90*Millisecond {
		t.Fatalf("Max = %v", got)
	}
	if got := r.Percentile(50); got != 20*Millisecond {
		t.Fatalf("p50 = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10*Millisecond, 0, 100*Millisecond)
	h.AddAll([]Duration{5 * Millisecond, 15 * Millisecond, 15 * Millisecond, 250 * Millisecond})
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Overflow != 1 {
		t.Fatalf("overflow = %d", h.Overflow)
	}
	out := h.Render("pauses")
	if !strings.Contains(out, "pauses") || !strings.Contains(out, "#") {
		t.Fatalf("render output missing content:\n%s", out)
	}
}

func TestHistogramInvalid(t *testing.T) {
	mustPanic(t, func() { NewHistogram(0, 0, Second) })
	mustPanic(t, func() { NewHistogram(Millisecond, Second, Second) })
}

func TestAccountString(t *testing.T) {
	if AcctFlip.String() != "flip" {
		t.Fatalf("AcctFlip = %q", AcctFlip.String())
	}
	if Account(99).String() == "" {
		t.Fatal("out-of-range account has empty name")
	}
}

// TestPercentilesMatchesPercentile pins the batch helper to the single-
// quantile rule at every small n where nearest-rank is easiest to get wrong:
// for n < 100 the p99 rank is the last element, and p99 vs p99.9 only
// separate once n reaches the hundreds.
func TestPercentilesMatchesPercentile(t *testing.T) {
	for n := 1; n <= 12; n++ {
		// Descending input: Percentiles must sort, not trust order.
		ds := make([]Duration, n)
		for i := range ds {
			ds[i] = Duration((n - i) * 10)
		}
		ps := []float64{0, 50, 95, 99, 99.9, 100}
		got := Percentiles(ds, ps...)
		if len(got) != len(ps) {
			t.Fatalf("n=%d: got %d results for %d quantiles", n, len(got), len(ps))
		}
		for i, p := range ps {
			if want := Percentile(ds, p); got[i] != want {
				t.Errorf("n=%d p%.1f: Percentiles = %v, Percentile = %v", n, p, got[i], want)
			}
		}
		// With n < 100 observations both extreme quantiles are the max.
		if got[3] != Duration(n*10) || got[4] != Duration(n*10) {
			t.Errorf("n=%d: p99 %v / p99.9 %v, want the max %v", n, got[3], got[4], Duration(n*10))
		}
	}
	// At n = 1000 the two tails must separate: nearest rank 990 vs 999.
	ds := make([]Duration, 1000)
	for i := range ds {
		ds[i] = Duration(i + 1)
	}
	got := Percentiles(ds, 99, 99.9)
	if got[0] != 990 || got[1] != 999 {
		t.Errorf("n=1000: p99 %v p99.9 %v, want 990 and 999", got[0], got[1])
	}
	if out := Percentiles(nil, 50, 99); out[0] != 0 || out[1] != 0 {
		t.Errorf("empty input: got %v, want zeros", out)
	}
}
