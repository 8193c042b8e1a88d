package gctest

import (
	"fmt"
	"runtime"
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
			c := fmt.Sprint(cold.verify(new(heap.Visits)))
			if w != c {
				t.Fatalf("step %d %s: warm Verify reports %s, cold %s", i, what, w, c)
			}
			if w, c := warm.M.Clock.Now(), cold.M.Clock.Now(); w != c {
				t.Fatalf("step %d %s: warm Verify ends at %v of simulated time, cold at %v", i, what, w, c)
			}
			if p := spareSeen.Load(); p == nil || p.Len() != 0 {
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

// TestWarmWalksAllocateNothing: once the spare tables have held the graphs,
// Verify and Fingerprint make no Go heap allocation. Eight drivers past
// 300 000 operations, and a ninth holding large objects, hand the tables on,
// as a group's members do, with ten warm Verify and Fingerprint calls each:
// a Go map, which reseeds its hash when cleared, splits a table on most such
// runs. The count is the runtime's own, which testing.AllocsPerRun would
// round down by up to one allocation a run.
func TestWarmWalksAllocateNothing(t *testing.T) {
	var ds []*Driver
	for seed := int64(1); seed <= 8; seed++ {
		ds = append(ds, driverAfter(t, seed, 300000))
	}
	large, _ := newDriver(tortureConfig, 1)
	large.LargeEvery, large.LargeWords = 320, 1536
	if err := large.Step(20000); err != nil {
		t.Fatal(err)
	}
	ds = append(ds, large)
	var want []walked
	for _, d := range ds {
		w := walk(d)
		if w.err != "<nil>" {
			t.Fatal(w.err)
		}
		want = append(want, w)
	}
	fps := make([]uint64, 0, 10*len(ds))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		for _, d := range ds {
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, d.Fingerprint())
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("ten warm Verify and Fingerprint calls on each of nine drivers allocate %d times, want 0", n)
	}
	for i, fp := range fps {
		if w := want[i%len(ds)]; fp != w.fp {
			t.Errorf("warm fingerprint %016x, first %016x", fp, w.fp)
		}
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
