package main

// The perf subcommand: emits the performance trajectory as JSON
// (BENCH_PR8.json). Workload metrics come from internal/bench in simulated
// time; the barrier and hot-path ns/op sections are wall-clock, which is why
// they live in this command rather than under internal/ (the
// simulated-clock-only lint boundary).

import (
	"fmt"
	"os"
	"testing"

	"repligc/internal/bench"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// barrierMutator builds a mutator with an incremental collector attached,
// matching the setup of internal/core's micro-benchmarks.
func barrierMutator(naive bool) *core.Mutator {
	h := heap.New(heap.Config{
		NurseryBytes:    1 << 20,
		NurseryCapBytes: 16 << 20,
		OldSemiBytes:    64 << 20,
	})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	m.NaiveBarrier = naive
	gc := core.NewReplicating(h, core.Config{
		NurseryBytes:        1 << 20,
		MajorThresholdBytes: 4 << 20,
		CopyLimitBytes:      100 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	})
	m.AttachGC(gc)
	return m
}

// oldStoreNs times repeated stores to one old-generation slot: with naive
// true every store appends a log entry; with coalescing the first store
// stamps the slot and the rest are dirty hits.
func oldStoreNs(naive bool) float64 {
	m := barrierMutator(naive)
	//gclint:allow barrier -- benchmark fixture: the store being measured needs an old-generation target, and every measured store goes through Mutator.Set
	arr, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 64)
	if !ok {
		panic("rtgc-bench: old-space alloc failed")
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Set(arr, 0, heap.FromInt(int64(i)))
			if i%4096 == 0 {
				m.Log.TrimTo(m.Log.Len())
			}
		}
	})
	return float64(r.NsPerOp())
}

// nurseryStoreNs times the nursery fast path: stores to an unreplicated
// nursery object append nothing.
func nurseryStoreNs() float64 {
	m := barrierMutator(false)
	arr := m.MustAlloc(heap.KindArray, 64)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Set(arr, i%64, heap.FromInt(int64(i)))
		}
	})
	return float64(r.NsPerOp())
}

// fastPathAllocsZero reports whether both fast paths are allocation-free.
func fastPathAllocsZero() bool {
	m := barrierMutator(false)
	nursery := m.MustAlloc(heap.KindArray, 8)
	//gclint:allow barrier -- benchmark fixture: the dirty-stamp probe needs an old-generation target, and every measured store goes through Mutator.Set
	old, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 8)
	if !ok {
		panic("rtgc-bench: old-space alloc failed")
	}
	m.Set(old, 0, heap.FromInt(0)) // prime the stamp
	n := testing.AllocsPerRun(1000, func() { m.Set(nursery, 0, heap.FromInt(1)) })
	n += testing.AllocsPerRun(1000, func() { m.Set(old, 0, heap.FromInt(1)) })
	return n == 0
}

// measureBarrier fills the wall-clock section of the report.
func measureBarrier() bench.BarrierNsOp {
	b := bench.BarrierNsOp{
		Naive:       oldStoreNs(true),
		DirtyHit:    oldStoreNs(false),
		NurserySkip: nurseryStoreNs(),
		ZeroAllocs:  fastPathAllocsZero(),
	}
	if b.DirtyHit > 0 {
		b.SpeedupX = b.Naive / b.DirtyHit
	}
	return b
}

// runPerf builds the full report and writes it to outPath ("" = stdout),
// gating it against baselinePath when one is given.
//
//gclint:io reads the baseline report the fresh one is gated against
func runPerf(s bench.Scale, scaleName, outPath, baselinePath string) error {
	rep, err := bench.RunPerf(s, scaleName)
	if err != nil {
		return err
	}
	rep.Barrier = measureBarrier()
	rep.HotPaths, err = measureHotPaths(s)
	if err != nil {
		return err
	}
	data, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if err := bench.ValidatePerf(data); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	if baselinePath != "" {
		base, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("perf baseline: %w", err)
		}
		if err := bench.ComparePerf(data, base); err != nil {
			return err
		}
		fmt.Printf("baseline gate passed against %s (every deterministic field equal)\n", baselinePath)
	}
	if err := writeReport(data, outPath); err != nil || outPath == "" {
		return err
	}
	fmt.Printf("wrote %s (%d workloads, barrier %0.1f -> %0.1f ns/op, replay %0.1f -> %0.1f, copy %0.2f -> %0.2f ns/B)\n",
		outPath, len(rep.Workloads), rep.Barrier.Naive, rep.Barrier.DirtyHit,
		rep.HotPaths.ReplayNaive, rep.HotPaths.ReplayBatched,
		rep.HotPaths.ByteCopyNaive, rep.HotPaths.ByteCopyBlock)
	return nil
}
