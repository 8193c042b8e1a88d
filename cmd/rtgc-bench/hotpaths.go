package main

// The hot-path section of the perf report (introduced in schema repligc-bench/4):
// wall-clock before/after of the collector's raw-speed optimisations. Each
// "naive" leg is the same collector with core.Config.NaiveReplay set — the
// per-object replay memo, block byte copies and batched scan accounting
// disabled — so the pair differs only in implementation. The simulated
// outcome is proved identical by bench.ReplaySimIdentical, and that proof is
// part of the report.
//
// Wall-clock measurement lives in this command, not under internal/, for the
// same reason as the barrier section: internal/ is the simulated-clock-only
// lint boundary (internal/calib being the one annotated exception).

import (
	"testing"

	"repligc/internal/bench"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// hotMutator builds an incremental replicating collector whose minor cycles
// span several budgeted pauses, which is what keeps the replay and scan
// paths busy while the benchmark loops mutate.
func hotMutator(naiveReplay bool) (*core.Mutator, *core.Replicating) {
	h := heap.New(heap.Config{
		NurseryBytes:    1 << 20,
		NurseryCapBytes: 16 << 20,
		OldSemiBytes:    64 << 20,
	})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, core.Config{
		NurseryBytes:        1 << 20,
		MajorThresholdBytes: 16 << 20,
		CopyLimitBytes:      100 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
		NaiveReplay:         naiveReplay,
	})
	m.AttachGC(gc)
	return m, gc
}

// rootSource adapts a function to core.RootSource for the fixtures below.
type rootSource func(core.RootVisitor)

func (f rootSource) VisitRoots(v core.RootVisitor) { f(v) }

// replayNs times a mutation-heavy loop whose log is dominated by runs of
// entries against the same arrays: long-lived arrays are replicated
// mid-cycle while consecutive stores keep dirtying their slots, so every
// pause re-applies batches of same-object entries — the shape the
// per-object forwarding memo accelerates.
func replayNs(naiveReplay bool) float64 {
	m, _ := hotMutator(naiveReplay)
	arrays := make([]heap.Value, 4)
	for i := range arrays {
		arrays[i] = m.MustAlloc(heap.KindArray, 64)
	}
	keep := make([]heap.Value, 1024)
	m.Roots.Register(rootSource(func(v core.RootVisitor) {
		for i := range arrays {
			v(&arrays[i])
		}
		for i := range keep {
			v(&keep[i])
		}
	}))
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// 32 consecutive stores to one array before moving on: the log
			// carries long same-object runs into each pause.
			m.Set(arrays[(i/32)%4], i%32, heap.FromInt(int64(i)))
			if i%4 == 0 {
				p := m.MustAlloc(heap.KindRecord, 30)
				if i%16 == 0 {
					keep[(i/16)%1024] = p
				}
			}
		}
	})
	return float64(r.NsPerOp())
}

// byteCopyNs times byte-range mutations to nursery byte buffers anchored
// from a logged old-generation object: the log-replay phase at each minor
// cycle's start replicates them, so every byte range logged for the rest of
// the cycle is re-applied to the replica — byte-at-a-time on the naive
// path, through heap.CopyPayloadBytes otherwise. Stores stride across large
// buffers so each dirties fresh words (one log entry per store rather than
// a coalesced handful), and the buffers are re-allocated after every flip
// so promotion never closes the replay window. Reported per byte stored.
func byteCopyNs(naiveReplay bool) float64 {
	m, gc := hotMutator(naiveReplay)
	//gclint:allow barrier -- benchmark fixture: the buffers need an old-generation anchor so log replay replicates them at cycle start; every measured store goes through Mutator.SetByteRange
	anchor, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 4)
	if !ok {
		panic("rtgc-bench: old-space alloc failed")
	}
	keep := make([]heap.Value, 3072)
	const (
		bufBytes   = 32 << 10
		chunkBytes = 512
		ranges     = bufBytes / chunkBytes
	)
	// The buffers are roots as well as anchor referents: flips must update
	// the Go-side handles the loop stores through, or they go stale.
	bufs := make([]heap.Value, 4)
	m.Roots.Register(rootSource(func(v core.RootVisitor) {
		v(&anchor)
		for i := range bufs {
			v(&bufs[i])
		}
		for i := range keep {
			v(&keep[i])
		}
	}))
	refresh := func() {
		for k := range bufs {
			bufs[k] = m.MustAllocBytes(bufBytes)
			m.Set(anchor, k, bufs[k])
		}
	}
	refresh()
	lastMinor := gc.Stats().MinorCollections
	chunk := make([]byte, chunkBytes)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.SetByteRange(bufs[i%4], (i/4%ranges)*chunkBytes, chunk)
			if i%2 == 0 {
				p := m.MustAlloc(heap.KindRecord, 30)
				if i%4 == 0 {
					keep[(i/4)%3072] = p
				}
			}
			if i%16 == 0 {
				if mc := gc.Stats().MinorCollections; mc != lastMinor {
					lastMinor = mc
					refresh()
				}
			}
		}
	})
	return float64(r.NsPerOp()) / chunkBytes
}

// scanNs times a survivor-heavy allocation loop: large records full of
// non-pointer slots survive into the old generation, so pause time is
// dominated by the minor Cheney scan walking boring slots — per-slot budget
// checks on the naive path, batched accounting otherwise. Reported per word
// scanned.
func scanNs(naiveReplay bool) float64 {
	m, gc := hotMutator(naiveReplay)
	const recWords = 62
	keep := make([]heap.Value, 2048)
	m.Roots.Register(rootSource(func(v core.RootVisitor) {
		for i := range keep {
			v(&keep[i])
		}
	}))
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := m.MustAlloc(heap.KindRecord, recWords)
			m.Init(p, 0, heap.FromInt(int64(i)))
			keep[i%2048] = p
		}
	})
	if gc.Stats().TotalBytesCopied() == 0 {
		return 0 // the loop never triggered a collection; nothing was scanned
	}
	// Every iteration allocates one surviving record of recWords+1 words
	// (header included), and survivors are copied and scanned exactly once
	// per generation, so ns/op over the record size is the per-word figure.
	// Both legs process the identical volume (sim-identical), making the
	// pair directly comparable.
	return float64(r.NsPerOp()) / float64(recWords+1)
}

// rootsNs times root enumeration per slot through the closure-based Visit
// and the reusable Slots buffer.
func rootsNs() (visit, slots float64, zeroAlloc bool) {
	const nRoots = 4096
	var rs core.RootSet
	table := make([]heap.Value, nRoots)
	rs.Register(rootSource(func(v core.RootVisitor) {
		for i := range table {
			v(&table[i])
		}
	}))
	sink := 0
	rv := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += rs.Visit(func(slot *heap.Value) {})
		}
	})
	rsl := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(rs.Slots())
		}
	})
	_ = sink
	rs.Slots() // warm the buffer before asserting allocation freedom
	zeroAlloc = testing.AllocsPerRun(100, func() { rs.Slots() }) == 0
	return float64(rv.NsPerOp()) / nRoots, float64(rsl.NsPerOp()) / nRoots, zeroAlloc
}

// speedup guards the naive/optimised ratio against a zero denominator.
func speedup(naive, opt float64) float64 {
	if opt <= 0 {
		return 0
	}
	return naive / opt
}

// measureHotPaths fills the hot-path wall-clock section, including the
// sim-identity proof at the report's scale.
func measureHotPaths(s bench.Scale) (bench.HotPathsNsOp, error) {
	identical, err := bench.ReplaySimIdentical(s)
	if err != nil {
		return bench.HotPathsNsOp{}, err
	}
	hp := bench.HotPathsNsOp{
		ReplayNaive:   replayNs(true),
		ReplayBatched: replayNs(false),
		ByteCopyNaive: byteCopyNs(true),
		ByteCopyBlock: byteCopyNs(false),
		ScanNaive:     scanNs(true),
		ScanBatched:   scanNs(false),
		SimIdentical:  identical,
	}
	var zero bool
	hp.RootsVisit, hp.RootsSlots, zero = rootsNs()
	hp.ZeroAllocs = zero
	hp.ReplaySpeedupX = speedup(hp.ReplayNaive, hp.ReplayBatched)
	hp.ByteCopySpeedupX = speedup(hp.ByteCopyNaive, hp.ByteCopyBlock)
	hp.ScanSpeedupX = speedup(hp.ScanNaive, hp.ScanBatched)
	hp.RootsSpeedupX = speedup(hp.RootsVisit, hp.RootsSlots)
	return hp, nil
}
