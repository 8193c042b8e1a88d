package core_test

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// tortured returns a mutator whose root set holds the graph that a torture
// driver seeded with seed leaves after ops operations, large objects every
// 320th operation when large is set.
func tortured(seed int64, ops int, large bool) *core.Mutator {
	cfg := core.Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 128 << 10, CopyLimitBytes: 8 << 10,
		IncrementalMinor: true, IncrementalMajor: true}
	h := heap.New(heap.Config{NurseryBytes: cfg.NurseryBytes, NurseryCapBytes: 32 * cfg.NurseryBytes, OldSemiBytes: 16 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	m.AttachGC(core.NewReplicating(h, cfg))
	d := gctest.NewDriver(m, seed)
	if large {
		d.LargeEvery, d.LargeWords = 320, 1536
	}
	if err := d.Step(ops); err != nil {
		panic(err)
	}
	return m
}

// rootWalk presents every root slot of m, in the root set's order.
func rootWalk(m *core.Mutator) func(func(uint64), func(heap.Value)) {
	return func(mix func(uint64), walk func(heap.Value)) {
		slots := m.Roots.Slots()
		mix(uint64(len(slots)))
		for _, p := range slots {
			walk(*p)
		}
	}
}

// TestWarmDigestMatchesCold digests a sequence of graphs through the spare
// visit table and, on a twin of each mutator, on a fresh table: digest and
// simulated clock must agree at every step. The sequence goes from large
// graphs to small and back, and one step's enumeration panics halfway, so a
// table left holding a walk's ids shows as a wrong digest or a walk that
// skipped reads.
func TestWarmDigestMatchesCold(t *testing.T) {
	for i, s := range []struct {
		seed   int64
		ops    int
		large  bool
		panics bool
	}{
		{1, 20000, true, false},
		{2, 300, false, false},
		{3, 8000, false, true},
		{3, 8000, false, false},
		{4, 20000, false, false},
		{5, 50, false, false},
		{6, 4000, true, false},
	} {
		warm, cold := tortured(s.seed, s.ops, s.large), tortured(s.seed, s.ops, s.large)
		if s.panics {
			func() {
				defer func() { recover() }()
				warm.GraphDigest(func(mix func(uint64), walk func(heap.Value)) {
					rootWalk(warm)(mix, walk)
					panic("enumeration fails")
				})
			}()
			warm = tortured(s.seed, s.ops, s.large)
		}
		w, c := warm.GraphDigest(rootWalk(warm)), cold.ColdGraphDigest(rootWalk(cold))
		if w != c {
			t.Errorf("step %d (seed %d, %d ops): warm digest %016x, cold %016x", i, s.seed, s.ops, w, c)
		}
		if w, c := warm.Clock.Now(), cold.Clock.Now(); w != c {
			t.Errorf("step %d (seed %d, %d ops): warm digest ends at %v of simulated time, cold at %v", i, s.seed, s.ops, w, c)
		}
	}
}

// TestWarmDigestAllocatesNothing: once the spare table has held a graph, a
// digest of it makes no Go heap allocation — the enumeration closure, built
// afresh each run, stays on the stack.
func TestWarmDigestAllocatesNothing(t *testing.T) {
	m := tortured(1, 20000, true)
	want := m.GraphDigest(rootWalk(m))
	var got uint64
	if n := testing.AllocsPerRun(20, func() {
		got = m.GraphDigest(func(mix func(uint64), walk func(heap.Value)) {
			slots := m.Roots.Slots()
			mix(uint64(len(slots)))
			for _, p := range slots {
				walk(*p)
			}
		})
	}); n != 0 {
		t.Errorf("a warm digest allocates %.1f times, want 0", n)
	}
	if got != want {
		t.Errorf("warm digest %016x, first %016x", got, want)
	}
}
