package core_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

func newRun(gcCfg core.Config, policy core.LogPolicy) (*core.Mutator, *core.Replicating) {
	h := heap.New(heap.Config{
		NurseryBytes:    gcCfg.NurseryBytes,
		NurseryCapBytes: 32 * gcCfg.NurseryBytes,
		OldSemiBytes:    16 << 20,
	})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), policy)
	gc := core.NewReplicating(h, gcCfg)
	m.AttachGC(gc)
	return m, gc
}

func tortureConfig(minorInc, majorInc bool) core.Config {
	return core.Config{
		NurseryBytes:        32 << 10,
		MajorThresholdBytes: 128 << 10,
		CopyLimitBytes:      8 << 10,
		IncrementalMinor:    minorInc,
		IncrementalMajor:    majorInc,
	}
}

// TestReplicatingShadowModel is the central correctness test: a large
// pseudo-random workload is mirrored in a Go shadow graph and verified
// against the heap, repeatedly, while incremental collections are in
// flight.
func TestReplicatingShadowModel(t *testing.T) {
	for _, cfg := range []struct {
		name               string
		minorInc, majorInc bool
		lazy               bool
	}{
		{"rt", true, true, false},
		{"minor-inc", true, false, false},
		{"major-inc", false, true, false},
		{"stop-copy-core", false, false, false},
		{"rt-lazy", true, true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			c := tortureConfig(cfg.minorInc, cfg.majorInc)
			c.LazyLogProcessing = cfg.lazy
			m, gc := newRun(c, core.LogAllMutations)
			d := gctest.NewDriver(m, 1)
			for round := 0; round < 60; round++ {
				d.Step(400)
				if err := d.Verify(); err != nil {
					t.Fatalf("round %d (ops %d, pauses %d): %v",
						round, d.Ops, gc.Stats().PauseCount, err)
				}
			}
			gc.FinishCycles(m)
			if err := d.Verify(); err != nil {
				t.Fatalf("after FinishCycles: %v", err)
			}
			st := gc.Stats()
			if st.MinorCollections == 0 {
				t.Fatal("no minor collections happened; workload too small")
			}
			if c.MajorThresholdBytes > 0 && st.MajorCollections == 0 {
				t.Fatal("no major collections happened; workload too small")
			}
		})
	}
}

// TestDifferentialFingerprints runs the identical workload under every
// configuration and demands identical reachable-graph fingerprints.
func TestDifferentialFingerprints(t *testing.T) {
	fingerprint := func(minorInc, majorInc, lazy bool) uint64 {
		c := tortureConfig(minorInc, majorInc)
		c.LazyLogProcessing = lazy
		m, gc := newRun(c, core.LogAllMutations)
		d := gctest.NewDriver(m, 42)
		d.Step(20000)
		gc.FinishCycles(m)
		return d.Fingerprint()
	}
	want := fingerprint(false, false, false)
	for _, cfg := range []struct {
		name                     string
		minorInc, majorInc, lazy bool
	}{
		{"rt", true, true, false},
		{"minor-inc", true, false, false},
		{"major-inc", false, true, false},
		{"rt-lazy", true, true, true},
	} {
		if got := fingerprint(cfg.minorInc, cfg.majorInc, cfg.lazy); got != want {
			t.Errorf("%s fingerprint %#x differs from stop-copy-core %#x", cfg.name, got, want)
		}
	}
}

// TestIdleMembersCostNothing runs the shadow-model driver on member 0 of a
// four-member group whose other members never run, against the same seed on
// a NewMutator: a member of a group is the solo mutator, so the clock, every
// recorded pause, the collector's statistics and the reachable graph are
// equal.
func TestIdleMembersCostNothing(t *testing.T) {
	cfg := tortureConfig(true, true)
	run := func(members int) (simtime.Duration, []simtime.Pause, core.GCStats, uint64) {
		h := heap.New(heap.Config{
			NurseryBytes:    cfg.NurseryBytes,
			NurseryCapBytes: 32 * cfg.NurseryBytes,
			OldSemiBytes:    16 << 20,
		})
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		if members > 1 {
			m = core.NewGroup(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations, members).Members[0]
		}
		gc := core.NewReplicating(h, cfg)
		m.AttachGC(gc)
		d := gctest.NewDriver(m, 42)
		for round := 0; round < 10; round++ {
			if err := d.Step(2000); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(); err != nil {
				t.Fatalf("members=%d round %d: %v", members, round, err)
			}
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		return m.Clock.Now(), gc.Pauses().Pauses, *gc.Stats(), d.Fingerprint()
	}
	clk1, ps1, st1, fp1 := run(1)
	clk4, ps4, st4, fp4 := run(4)
	if clk1 != clk4 || fp1 != fp4 {
		t.Fatalf("clock %v / %v, graph %#x / %#x: three idle members moved the run", clk1, clk4, fp1, fp4)
	}
	if st1.MinorCollections == 0 || st1.MajorCollections == 0 {
		t.Fatalf("workload too small to compare: %+v", st1)
	}
	if !reflect.DeepEqual(st1, st4) {
		t.Fatalf("collector statistics differ:\n%+v\n%+v", st1, st4)
	}
	if !reflect.DeepEqual(ps1, ps4) {
		t.Fatalf("pause streams differ (%d and %d pauses)", len(ps1), len(ps4))
	}
}

// TestPauseBounding verifies the headline claim: with the incremental
// collector, pause times are bounded near the budget implied by L, while
// the non-incremental configuration produces much longer majors. The
// torture workload mutates far more than any of the paper's benchmarks; its
// log is replayed within the same budget as everything else.
func TestPauseBounding(t *testing.T) {
	run := func(minorInc, majorInc bool) *simtime.Recorder {
		m, gc := newRun(tortureConfig(minorInc, majorInc), core.LogAllMutations)
		d := gctest.NewDriver(m, 7)
		d.Step(24000)
		gc.FinishCycles(m)
		return gc.Pauses()
	}
	rt := run(true, true)
	sc := run(false, false)

	// Work budget for L = 8 KB at the default cost model: 2L of copy+scan
	// is about 4 ms.
	budget := simtime.Duration(2*8<<10/heap.BytesPerWord) * simtime.Default1993().CopyWord
	if max := sc.Max(); max < 5*budget {
		t.Errorf("stop-copy max pause %v suspiciously short (budget %v)", max, budget)
	}
	if sc.Max() <= rt.Max() {
		t.Errorf("stop-copy max pause %v not longer than rt max %v", sc.Max(), rt.Max())
	}
	// Every budgeted pause of rt ends within the budget plus one object no
	// larger than L/4 (TestPauseBound holds that in the paper's cell); here
	// the torture driver's 160-word objects are well under it.
	bound := tortureConfig(true, true).PauseBoundTime(simtime.Default1993())
	for i, p := range rt.Pauses {
		if !p.Unbudgeted() && p.Length > bound {
			t.Errorf("rt pause %d is %v long against the bound %v (budget %v)", i, p.Length, bound, budget)
		}
	}
}

// TestWorkloadResultsIndependentOfCollector ensures the mutator cannot
// observe the collector: allocation totals must match exactly across
// configurations (this is what makes replay scripts portable).
func TestWorkloadResultsIndependentOfCollector(t *testing.T) {
	alloc := func(minorInc, majorInc bool) int64 {
		m, gc := newRun(tortureConfig(minorInc, majorInc), core.LogAllMutations)
		d := gctest.NewDriver(m, 99)
		d.Step(15000)
		gc.FinishCycles(m)
		return m.BytesAllocated
	}
	a := alloc(true, true)
	b := alloc(false, false)
	if a != b {
		t.Fatalf("allocation totals differ: rt=%d sc=%d", a, b)
	}
}

// TestLatentGarbage checks table 3's direction: an incremental collector
// copies at least as much as a synchronized stop-and-copy collector, the
// difference being latent garbage.
func TestLatentGarbage(t *testing.T) {
	copied := func(minorInc, majorInc bool) int64 {
		m, gc := newRun(tortureConfig(minorInc, majorInc), core.LogAllMutations)
		d := gctest.NewDriver(m, 123)
		d.Step(20000)
		gc.FinishCycles(m)
		return gc.Stats().TotalBytesCopied()
	}
	rt := copied(true, true)
	sc := copied(false, false)
	if rt < sc {
		t.Errorf("rt copied %d < stop-copy %d; latent garbage cannot be negative", rt, sc)
	}
}

func TestForcedCompletionUnderTinyBudget(t *testing.T) {
	// With an absurdly small L and small expansion headroom the collector
	// must fall back to conservative completion rather than diverge.
	c := core.Config{
		NurseryBytes:        32 << 10,
		MajorThresholdBytes: 128 << 10,
		CopyLimitBytes:      256, // far below any real pause budget
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
	m, gc := newRun(c, core.LogAllMutations)
	gc.SetMinorLimits(512, 8)
	d := gctest.NewDriver(m, 5)
	d.Step(8000)
	gc.FinishCycles(m)
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if gc.Stats().ForcedCompletion == 0 {
		t.Fatal("expected forced completions under a tiny budget")
	}
}

func TestStatsAccounting(t *testing.T) {
	m, gc := newRun(tortureConfig(true, true), core.LogAllMutations)
	d := gctest.NewDriver(m, 11)
	d.Step(20000)
	gc.FinishCycles(m)
	st := gc.Stats()
	if st.LogScanned == 0 || st.LogReapplied == 0 {
		t.Errorf("log machinery unused: scanned=%d reapplied=%d", st.LogScanned, st.LogReapplied)
	}
	if st.FlipEntryUpdates == 0 {
		t.Error("no flip entry updates recorded")
	}
	if st.RootSlotUpdates == 0 {
		t.Error("no root updates recorded")
	}
	if st.BytesCopiedMinor == 0 || st.BytesCopiedMajor == 0 {
		t.Errorf("copy volumes: minor=%d major=%d", st.BytesCopiedMinor, st.BytesCopiedMajor)
	}
	if st.PauseCount != len(gc.Pauses().Pauses) {
		t.Errorf("pause count %d != recorded pauses %d", st.PauseCount, len(gc.Pauses().Pauses))
	}
}

// TestAuditHeapDuringCollections runs the audit at many points, including
// mid-incremental-collection, where it checks the from-space invariant.
func TestAuditHeapDuringCollections(t *testing.T) {
	m, gc := newRun(tortureConfig(true, true), core.LogAllMutations)
	d := gctest.NewDriver(m, 77)
	for round := 0; round < 30; round++ {
		d.Step(600)
		if err := core.AuditHeap(m); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	gc.FinishCycles(m)
	if err := core.AuditHeap(m); err != nil {
		t.Fatalf("after finish: %v", err)
	}
}

// TestShadowModelPropertySeeds drives the shadow-model torture test over
// arbitrary seeds via testing/quick: any seed the framework invents must
// produce a heap that matches its shadow.
func TestShadowModelPropertySeeds(t *testing.T) {
	f := func(seed int64, minorInc, majorInc bool) bool {
		cfg := tortureConfig(minorInc, majorInc)
		m, gc := newRun(cfg, core.LogAllMutations)
		d := gctest.NewDriver(m, seed)
		d.Step(4000)
		if err := d.Verify(); err != nil {
			t.Logf("seed %d (%v,%v): %v", seed, minorInc, majorInc, err)
			return false
		}
		gc.FinishCycles(m)
		if err := d.Verify(); err != nil {
			t.Logf("seed %d post-finish: %v", seed, err)
			return false
		}
		return core.AuditHeap(m) == nil
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedPacing exercises the §6 concurrent-style configuration:
// correctness via the shadow model, and the pause profile it exists for —
// micro-pauses bounded by the work quantum plus flip costs, far below the
// pause-based collector's budgeted pauses.
func TestInterleavedPacing(t *testing.T) {
	cfg := tortureConfig(true, true)
	cfg.InterleavedTaxPermille = 3000 // the torture driver has ~60% survival
	m, gc := newRun(cfg, core.LogAllMutations)
	d := gctest.NewDriver(m, 21)
	for round := 0; round < 40; round++ {
		d.Step(500)
		if err := d.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	gc.FinishCycles(m)
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := core.AuditHeap(m); err != nil {
		t.Fatal(err)
	}
	st := gc.Stats()
	if st.MinorCollections == 0 || st.MajorCollections == 0 {
		t.Fatalf("collections: %d minor, %d major", st.MinorCollections, st.MajorCollections)
	}

	// Compare the pause profile against the pause-based collector on the
	// same workload.
	base, baseGC := newRun(tortureConfig(true, true), core.LogAllMutations)
	db := gctest.NewDriver(base, 21)
	db.Step(20000)
	baseGC.FinishCycles(base)

	conc := gc.Pauses()
	if conc.Percentile(50) >= baseGC.Pauses().Percentile(50) {
		t.Errorf("interleaved p50 %v not below pause-based p50 %v",
			conc.Percentile(50), baseGC.Pauses().Percentile(50))
	}
}

// TestDeferMutableCopies exercises the §2.5 immutable-first variant:
// correctness via the shadow model and differential fingerprints, plus the
// property it exists for — far fewer log reapplies, because mutable objects
// are copied at completion with final contents.
func TestDeferMutableCopies(t *testing.T) {
	run := func(deferMut bool) (uint64, int64) {
		cfg := tortureConfig(true, true)
		cfg.DeferMutableCopies = deferMut
		m, gc := newRun(cfg, core.LogAllMutations)
		d := gctest.NewDriver(m, 4242)
		for round := 0; round < 30; round++ {
			d.Step(500)
			if err := d.Verify(); err != nil {
				t.Fatalf("defer=%v round %d: %v", deferMut, round, err)
			}
		}
		gc.FinishCycles(m)
		if err := d.Verify(); err != nil {
			t.Fatalf("defer=%v final: %v", deferMut, err)
		}
		if err := core.AuditHeap(m); err != nil {
			t.Fatalf("defer=%v audit: %v", deferMut, err)
		}
		return d.Fingerprint(), gc.Stats().LogReapplied
	}
	fpEager, reapplyEager := run(false)
	fpDefer, reapplyDefer := run(true)
	if fpEager != fpDefer {
		t.Fatalf("fingerprints differ: %#x vs %#x", fpEager, fpDefer)
	}
	if reapplyDefer >= reapplyEager {
		t.Errorf("deferred copying reapplied %d >= eager %d; the §2.5 benefit is missing",
			reapplyDefer, reapplyEager)
	}
}
