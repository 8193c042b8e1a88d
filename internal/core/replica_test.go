package core_test

import (
	"fmt"
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
	// Every budgeted pause of rt ends within the budget plus the last unit of
	// work begun inside it (TestPauseBound holds that in the paper's cell).
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

// TestExpansionBoundMajorPauseIsMajor: under minor-inc (a non-incremental
// major) a pause whose major flips in the forced completion at the nursery's
// expansion bound is recorded PauseMajor, as on the main path, so every
// completed major has its major pause. A nursery that may grow to twice its
// size and a budget no minor completes within send every completion there.
func TestExpansionBoundMajorPauseIsMajor(t *testing.T) {
	c := core.Config{
		NurseryBytes:        32 << 10,
		MajorThresholdBytes: 16 << 10,
		CopyLimitBytes:      256,
		IncrementalMinor:    true,
	}
	h := heap.New(heap.Config{NurseryBytes: c.NurseryBytes, NurseryCapBytes: 2 * c.NurseryBytes, OldSemiBytes: 16 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, c)
	m.AttachGC(gc)
	gc.SetMinorLimits(512, 1<<20)
	d := gctest.NewDriver(m, 5)
	if err := d.Step(40000); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	majors := 0
	for _, p := range gc.Pauses().Pauses {
		if p.Kind == simtime.PauseMajor {
			majors++
		}
	}
	st := gc.Stats()
	if st.MajorCollections == 0 || st.ForcedCompletion == 0 {
		t.Fatalf("the run completed %d majors and forced %d completions; it must do both", st.MajorCollections, st.ForcedCompletion)
	}
	if majors != st.MajorCollections {
		t.Fatalf("%d majors completed, %d pauses recorded PauseMajor", st.MajorCollections, majors)
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

// TestAuditHeapDuringCollections runs the audit at the tail of every pause
// and between rounds, including mid-incremental-collection, where it checks
// the from-space invariant. Beside the torture stream a rooted chain of
// immutable records gives the major exposure walks longer than a pause's
// budget, so some pause ends with a walk unfinished, where a visible slot
// redirected too early would lead to a hidden replica. Each of the two chain
// lengths makes such a pause in a schedule of its own, so the check does not
// rest on one pause.
func TestAuditHeapDuringCollections(t *testing.T) {
	for _, links := range []int{4000, 6000} {
		unfinished := 0
		for _, minorInc := range []bool{true, false} {
			label := fmt.Sprintf("chain of %d, minorInc=%v", links, minorInc)
			m, gc := newRun(tortureConfig(minorInc, true), core.LogAllMutations)
			a := &pauseAuditor{gc: gc}
			gc.SetCheckpointer(a)
			d := gctest.NewDriver(m, 77)
			chain := m.PushHandle(heap.Nil)
			for i := 0; i < links; i++ {
				rec, err := m.Alloc(heap.KindRecord, 2)
				if err != nil {
					t.Fatal(err)
				}
				m.Init(rec, 0, heap.FromInt(int64(i)))
				m.Init(rec, 1, m.HandleVal(chain))
				m.SetHandleVal(chain, rec)
			}
			for round := 0; round < 30; round++ {
				if err := d.Step(600); err != nil {
					t.Fatal(err)
				}
				if a.err != nil {
					t.Fatalf("%s round %d, at a pause's tail: %v", label, round, a.err)
				}
				if err := core.AuditHeap(m); err != nil {
					t.Fatalf("%s round %d: %v", label, round, err)
				}
			}
			if err := gc.FinishCycles(m); err != nil {
				t.Fatal(err)
			}
			if err := core.AuditHeap(m); err != nil {
				t.Fatalf("%s after finish: %v", label, err)
			}
			if err := d.Verify(); err != nil {
				t.Fatalf("%s after finish: %v", label, err)
			}
			unfinished += a.unfinished
		}
		if unfinished == 0 {
			t.Errorf("chain of %d: no pause ended with an exposure walk unfinished", links)
		}
		t.Logf("chain of %d: %d pauses ended with an exposure walk unfinished", links, unfinished)
	}
}

// TestFlipRedirectsEveryRoot: after every flip no root holds a pointer into
// the space the flip left behind (gctest.FlipAudit, at the tail of every
// pause), for a lone torture driver and four on one heap, under either minor
// mode and either major mode.
func TestFlipRedirectsEveryRoot(t *testing.T) {
	for _, members := range []int{1, 4} {
		for _, minorInc := range []bool{true, false} {
			for _, majorInc := range []bool{true, false} {
				label := fmt.Sprintf("members=%d minorInc=%v majorInc=%v", members, minorInc, majorInc)
				cfg := tortureConfig(minorInc, majorInc)
				h := heap.New(heap.Config{NurseryBytes: cfg.NurseryBytes, NurseryCapBytes: 32 * cfg.NurseryBytes, OldSemiBytes: 16 << 20})
				g := core.NewGroup(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations, members)
				gc := core.NewReplicating(h, cfg)
				g.AttachGC(gc)
				audit := &gctest.FlipAudit{}
				gc.SetCheckpointer(audit)
				var step func(int) error
				var verify func() error
				if members == 1 {
					d := gctest.NewDriver(g.Members[0], 5)
					step, verify = d.Step, d.Verify
				} else {
					md, err := gctest.NewMultiDriver(g, 5)
					if err != nil {
						t.Fatal(err)
					}
					step, verify = md.Step, md.Verify
				}
				for round := 0; round < 40 && audit.Err == nil; round++ {
					if err := step(1500 / members); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				if err := gc.FinishCycles(g.Members[0]); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := audit.Check(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := verify(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st := gc.Stats(); st.MajorCollections == 0 || audit.Flips < st.MinorCollections {
					t.Errorf("%s: %d flips checked in a run of %d minors and %d majors: want every minor's and some majors'", label, audit.Flips, st.MinorCollections, st.MajorCollections)
				}
			}
		}
	}
}

// pauseAuditor audits the heap at the tail of every pause, as a checkpoint
// writer is called, and counts the pauses that left an exposure walk
// unfinished.
type pauseAuditor struct {
	gc         *core.Replicating
	err        error
	unfinished int
}

func (a *pauseAuditor) PauseCheckpoint(m *core.Mutator, _ core.CheckpointPoint) bool {
	if a.gc.ExposeWalkPending() > 0 {
		a.unfinished++
	}
	if err := core.AuditHeap(m); err != nil && a.err == nil {
		a.err = err
	}
	return false
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
