package gctest

import (
	"fmt"
	"sync"
	"testing"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// walked is what one Verify and Fingerprint of a driver's graph give: the
// report, the fingerprint and the simulated clock after both.
type walked struct {
	err string
	fp  uint64
	now simtime.Duration
}

func walk(d *Driver) walked {
	err := fmt.Sprint(d.Verify())
	return walked{err, d.Fingerprint(), d.M.Clock.Now()}
}

// TestWarmVerifyMatchesCold verifies a sequence of graphs through the spare
// visit table and, on a twin of each driver, on a fresh table: report and
// simulated clock must agree at every step. Large graphs alternate with
// small ones, and one step's Verify fails at its last root, most of the
// graph seen, before a clean one of the same graph: a table left holding a
// walk's ids shows as an aliasing report or a walk that skipped reads.
func TestWarmVerifyMatchesCold(t *testing.T) {
	for i, s := range []struct {
		seed  int64
		ops   int
		large bool
		fail  bool
	}{
		{1, 20000, true, false},
		{2, 300, false, false},
		{3, 8000, false, true},
		{4, 20000, false, false},
		{5, 50, false, false},
		{6, 4000, true, true},
	} {
		warm, _ := newDriver(tortureConfig, s.seed)
		cold, _ := newDriver(tortureConfig, s.seed)
		for _, d := range []*Driver{warm, cold} {
			if s.large {
				d.LargeEvery, d.LargeWords = 320, 1536
			}
			if err := d.Step(s.ops); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string) {
			t.Helper()
			w := fmt.Sprint(warm.Verify())
			c := fmt.Sprint(cold.verify(map[heap.Value]int32{}))
			if w != c {
				t.Fatalf("step %d %s: warm Verify reports %s, cold %s", i, what, w, c)
			}
			if w, c := warm.M.Clock.Now(), cold.M.Clock.Now(); w != c {
				t.Fatalf("step %d %s: warm Verify ends at %v of simulated time, cold at %v", i, what, w, c)
			}
			if p := spareSeen.Load(); p == nil || len(*p) != 0 {
				t.Fatalf("step %d %s: Verify did not park an empty table", i, what)
			}
		}
		if s.fail {
			last := len(warm.shadow) - 1
			for last >= 0 && warm.shadow[last] >= 0 {
				last--
			}
			keep := warm.shadow[last]
			warm.shadow[last], cold.shadow[last] = intShadow(7), intShadow(7)
			check("corrupted")
			warm.shadow[last], cold.shadow[last] = keep, keep
		}
		check("clean")
	}
}

// TestWarmWalksAllocateNothing: once the spare tables have held a graph,
// Verify and Fingerprint of it make no Go heap allocation.
func TestWarmWalksAllocateNothing(t *testing.T) {
	d, _ := newDriver(tortureConfig, 1)
	d.LargeEvery, d.LargeWords = 320, 1536
	if err := d.Step(20000); err != nil {
		t.Fatal(err)
	}
	want := walk(d)
	if want.err != "<nil>" {
		t.Fatal(want.err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm Verify allocates %.1f times, want 0", n)
	}
	var fp uint64
	if n := testing.AllocsPerRun(20, func() { fp = d.Fingerprint() }); n != 0 {
		t.Errorf("a warm Fingerprint allocates %.1f times, want 0", n)
	}
	if fp != want.fp {
		t.Errorf("warm fingerprint %016x, first %016x", fp, want.fp)
	}
}

// TestConcurrentWalks: two goroutines, each verifying and fingerprinting its
// own drivers, take and park both spare tables in turn; every report,
// fingerprint and clock equals the serial run's. make race runs it under
// the race detector.
func TestConcurrentWalks(t *testing.T) {
	run := func() []walked {
		var out []walked
		for seed := int64(1); seed <= 4; seed++ {
			d, _ := newDriver(tortureConfig, seed)
			for k := 0; k < 3; k++ {
				if err := d.Step(1500); err != nil {
					t.Error(err)
					return nil
				}
				out = append(out, walk(d))
			}
		}
		return out
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := run()
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Errorf("walk %d concurrently differs from the serial walk", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
