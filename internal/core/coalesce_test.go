package core_test

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
)

// coalesceConfigs are the collector configurations the coalescing and
// batched-replay properties are checked under: the real-time collector (both
// generations incremental, where log entries are consumed by minor and major
// cursors at different times), the stop-the-world core configuration, the
// lazy-reapply ablation, whose deferred queue records sequence numbers of
// entries that coalescing makes scarcer, and every other shape the single
// scan kernel runs in — one generation incremental at a time, deferred
// mutable copies (the forwarder hands a slot's value back unchanged) and
// interleaved pacing (major increments in mid-cycle).
func coalesceConfigs() map[string]core.Config {
	rt := core.Config{
		NurseryBytes:        96 << 10,
		MajorThresholdBytes: 384 << 10,
		CopyLimitBytes:      8 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
	with := func(edit func(*core.Config)) core.Config {
		cfg := rt
		edit(&cfg)
		return cfg
	}
	return map[string]core.Config{
		"rt": rt,
		"stop-copy-core": {
			NurseryBytes:        96 << 10,
			MajorThresholdBytes: 384 << 10,
		},
		"rt-lazy":   with(func(c *core.Config) { c.LazyLogProcessing = true }),
		"minor-inc": with(func(c *core.Config) { c.IncrementalMajor = false }),
		"major-inc": with(func(c *core.Config) { c.IncrementalMinor = false }),
		"rt-defer":  with(func(c *core.Config) { c.DeferMutableCopies = true }),
		"rt-conc":   with(func(c *core.Config) { c.InterleavedTaxPermille = 1500 }),
	}
}

// TestCoalescedReplayBitIdentical is the PR's property test: for seeded
// random workloads — including byte and non-pointer mutations — a run whose
// barrier coalesces log entries (dirty stamps + nursery fast path) must
// produce a heap bit-identical to a run with the naive append-every-store
// barrier. Identity is checked as equal reachable-graph fingerprints at
// every checkpoint plus a full shadow-model verification of both heaps:
// coalescing only changes how the log represents the exception set, never
// the contents the collector reconstructs.
func TestCoalescedReplayBitIdentical(t *testing.T) {
	const (
		steps       = 400
		checkpoints = 25
	)
	for name, cfg := range coalesceConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				mNaive, _ := newRun(cfg, core.LogAllMutations)
				mNaive.NaiveBarrier = true
				mCoal, _ := newRun(cfg, core.LogAllMutations)

				dNaive := gctest.NewDriver(mNaive, seed)
				dCoal := gctest.NewDriver(mCoal, seed)
				for cp := 0; cp < checkpoints; cp++ {
					if err := dNaive.Step(steps); err != nil {
						t.Fatalf("seed %d naive: %v", seed, err)
					}
					if err := dCoal.Step(steps); err != nil {
						t.Fatalf("seed %d coalesced: %v", seed, err)
					}
					fpN, fpC := dNaive.Fingerprint(), dCoal.Fingerprint()
					if fpN != fpC {
						t.Fatalf("seed %d checkpoint %d: fingerprints diverge (naive %#x, coalesced %#x)",
							seed, cp, fpN, fpC)
					}
				}
				if err := dNaive.Verify(); err != nil {
					t.Fatalf("seed %d naive shadow check: %v", seed, err)
				}
				if err := dCoal.Verify(); err != nil {
					t.Fatalf("seed %d coalesced shadow check: %v", seed, err)
				}
				if err := core.AuditHeap(mCoal); err != nil {
					t.Fatalf("seed %d coalesced audit: %v", seed, err)
				}
				if mCoal.LogWrites > mNaive.LogWrites {
					t.Fatalf("seed %d: coalesced barrier wrote more entries (%d) than naive (%d)",
						seed, mCoal.LogWrites, mNaive.LogWrites)
				}
			}
		})
	}
}

// TestBatchedReplayBitIdentical is the hot-path property test: the replay
// memo, block byte copies and batched scan accounting (the default) must
// leave every observable identical to the naive entry-at-a-time paths
// (Config.NaiveReplay) — same reachable-graph fingerprints at every
// checkpoint, same shadow-model contents, and the same simulated clock down
// to the per-account breakdown. The optimisations may only change how fast
// the host executes the collector, never what the collector does.
func TestBatchedReplayBitIdentical(t *testing.T) {
	const (
		steps       = 400
		checkpoints = 25
	)
	for name, cfg := range coalesceConfigs() {
		t.Run(name, func(t *testing.T) {
			naiveCfg := cfg
			naiveCfg.NaiveReplay = true
			for seed := int64(1); seed <= 6; seed++ {
				mNaive, _ := newRun(naiveCfg, core.LogAllMutations)
				mOpt, _ := newRun(cfg, core.LogAllMutations)

				dNaive := gctest.NewDriver(mNaive, seed)
				dOpt := gctest.NewDriver(mOpt, seed)
				for cp := 0; cp < checkpoints; cp++ {
					if err := dNaive.Step(steps); err != nil {
						t.Fatalf("seed %d naive replay: %v", seed, err)
					}
					if err := dOpt.Step(steps); err != nil {
						t.Fatalf("seed %d batched replay: %v", seed, err)
					}
					fpN, fpO := dNaive.Fingerprint(), dOpt.Fingerprint()
					if fpN != fpO {
						t.Fatalf("seed %d checkpoint %d: fingerprints diverge (naive %#x, batched %#x)",
							seed, cp, fpN, fpO)
					}
				}
				if err := dNaive.Verify(); err != nil {
					t.Fatalf("seed %d naive shadow check: %v", seed, err)
				}
				if err := dOpt.Verify(); err != nil {
					t.Fatalf("seed %d batched shadow check: %v", seed, err)
				}
				if err := core.AuditHeap(mOpt); err != nil {
					t.Fatalf("seed %d batched audit: %v", seed, err)
				}
				if got, want := mOpt.Clock.Now(), mNaive.Clock.Now(); got != want {
					t.Fatalf("seed %d: simulated clocks diverge (batched %d, naive %d)", seed, got, want)
				}
				if got, want := mOpt.Clock.Breakdown(), mNaive.Clock.Breakdown(); got != want {
					t.Fatalf("seed %d: simulated cost breakdowns diverge\nbatched %v\nnaive   %v", seed, got, want)
				}
			}
		})
	}
}

// TestCoalescingActuallyCoalesces guards against the property test passing
// vacuously: on the torture workload the coalesced barrier must suppress a
// visible fraction of the naive run's log appends.
func TestCoalescingActuallyCoalesces(t *testing.T) {
	cfg := coalesceConfigs()["rt"]
	mNaive, _ := newRun(cfg, core.LogAllMutations)
	mNaive.NaiveBarrier = true
	mCoal, _ := newRun(cfg, core.LogAllMutations)
	if err := gctest.NewDriver(mNaive, 42).Step(8000); err != nil {
		t.Fatal(err)
	}
	if err := gctest.NewDriver(mCoal, 42).Step(8000); err != nil {
		t.Fatal(err)
	}
	if mCoal.BarrierFastSkips+mCoal.BarrierDirtySkips == 0 {
		t.Fatal("coalesced run skipped nothing; fast paths never fired")
	}
	if mCoal.LogWrites >= mNaive.LogWrites {
		t.Fatalf("coalesced run logged %d entries, naive %d; expected a reduction",
			mCoal.LogWrites, mNaive.LogWrites)
	}
}

// TestRootSlotsZeroAllocs asserts the allocation-free root enumeration: once
// the reusable buffer has warmed to the root population's size, Slots()
// performs zero Go allocations — unlike Visit, whose per-call closure
// escapes. Also checks both enumerations agree on order and count.
func TestRootSlotsZeroAllocs(t *testing.T) {
	var rs core.RootSet
	table := make([]heap.Value, 2048)
	rs.Register(rootFunc(func(v core.RootVisitor) {
		for i := range table {
			v(&table[i])
		}
	}))

	var visited []*heap.Value
	n := rs.Visit(func(slot *heap.Value) { visited = append(visited, slot) })
	slots := rs.Slots()
	if n != len(table) || len(slots) != len(table) {
		t.Fatalf("enumeration counts disagree: Visit %d, Slots %d, want %d", n, len(slots), len(table))
	}
	for i := range slots {
		if slots[i] != visited[i] {
			t.Fatalf("slot %d: Slots and Visit enumerate different pointers", i)
		}
	}

	if a := testing.AllocsPerRun(200, func() { rs.Slots() }); a != 0 {
		t.Fatalf("Slots allocates %.1f times per enumeration, want 0", a)
	}
}

// TestBarrierFastPathZeroAllocs asserts the satellite requirement directly:
// the barrier fast path performs zero Go allocations per store, for both
// the nursery skip and the dirty-stamp skip.
func TestBarrierFastPathZeroAllocs(t *testing.T) {
	m := bareMutator()
	nursery := m.MustAlloc(heap.KindArray, 8)
	old, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 8)
	if !ok {
		t.Fatal("old-space alloc failed")
	}
	m.Set(old, 0, heap.FromInt(0)) // prime the dirty stamp

	if n := testing.AllocsPerRun(1000, func() {
		m.Set(nursery, 0, heap.FromInt(7))
	}); n != 0 {
		t.Fatalf("nursery fast path allocates %.1f times per store, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		m.Set(old, 0, heap.FromInt(7))
	}); n != 0 {
		t.Fatalf("dirty-stamp fast path allocates %.1f times per store, want 0", n)
	}
}
