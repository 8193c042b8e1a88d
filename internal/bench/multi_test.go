package bench

import (
	"reflect"
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
)

func multiParams() Params {
	return Params{OBytes: 1 << 20, NBytes: 200 << 10, LBytes: 100 << 10}
}

// TestSoloGroupBitIdentical is the oracle behind the constructor's one
// decision about members: rig.New always builds a core.Group, and a
// one-member group must be bit-identical to a solo core.NewMutator — same
// reachable-graph fingerprint, same final simulated clock, same per-account
// time breakdown — across collector configurations and seeds. The reference
// side is wired by hand, from the parts, so the comparison cannot become the
// constructor against itself: any divergence means the group path (or the
// constructor's sizing and defaults) changed single-mutator behaviour.
func TestSoloGroupBitIdentical(t *testing.T) {
	type result struct {
		fp        uint64
		now       simtime.Duration
		breakdown [simtime.NumAccounts]simtime.Duration
	}
	const ops = 12000
	// The constructor's cap rule on both sides, and semispaces no larger than
	// the run needs: thirty-six 208 MB arenas were most of this test's time.
	const oldSemi = 8 << 20
	p := multiParams()
	for _, cfg := range []rig.Collector{rig.RT, rig.RTLazy, rig.SC} {
		for _, seed := range []int64{1, 7, 42, 99, 1234, 987654} {
			solo := func() result {
				h := heap.New(heap.Config{NurseryBytes: p.NBytes, NurseryCapBytes: 16 << 20, OldSemiBytes: oldSemi})
				m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), cfg.Log)
				var gc core.Collector
				if cfg.StopCopy {
					gc = stopcopy.New(h, stopcopy.Config{NurseryBytes: p.NBytes, MajorThresholdBytes: p.OBytes})
				} else {
					cc := cfg.Engine
					cc.NurseryBytes, cc.MajorThresholdBytes, cc.CopyLimitBytes = p.NBytes, p.OBytes, p.LBytes
					gc = core.NewReplicating(h, cc)
				}
				m.AttachGC(gc)
				d := gctest.NewDriver(m, seed)
				if err := d.Step(ops); err != nil {
					t.Fatal(err)
				}
				if err := gc.FinishCycles(m); err != nil {
					t.Fatal(err)
				}
				return result{d.Fingerprint(), m.Clock.Now(), m.Clock.Breakdown()}
			}()

			grouped := func() result {
				rt, err := rig.New(rig.Config{Collector: cfg, Params: p, OldSemiBytes: oldSemi})
				if err != nil {
					t.Fatal(err)
				}
				m := rt.Mutator
				d := gctest.NewDriver(m, seed)
				if err := rt.Group.Run(0, func(*core.Mutator) error { return d.Step(ops) }); err != nil {
					t.Fatal(err)
				}
				if err := rt.Finish(); err != nil {
					t.Fatal(err)
				}
				if rt.Group.Elapsed() != m.Clock.Now() {
					t.Fatalf("%s seed %d: one-member wall %v != clock %v",
						cfg.Name, seed, rt.Group.Elapsed(), m.Clock.Now())
				}
				return result{d.Fingerprint(), m.Clock.Now(), m.Clock.Breakdown()}
			}()

			if solo != grouped {
				t.Fatalf("%s seed %d: solo and one-member group diverged:\nsolo    %+v\ngrouped %+v",
					cfg.Name, seed, solo, grouped)
			}
		}
	}
}

// TestMultiMutatorDeterminismMatrix pins that N-mutator runs are exact
// functions of the seed: same seed → identical combined fingerprint and
// identical final clock, for N in {2, 4, 8}, and independently of the order
// member logs are drained in at merge time (the canonical merge is what
// buys the latter).
func TestMultiMutatorDeterminismMatrix(t *testing.T) {
	run := func(n int, seed int64, mergeOrder []int) (uint64, simtime.Duration) {
		gr, err := rig.New(rig.Config{Collector: rig.RT, Params: multiParams(), Members: n})
		if err != nil {
			t.Fatal(err)
		}
		gr.Group.SetMergeOrder(mergeOrder)
		md, err := gctest.NewMultiDriver(gr.Group, seed)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			if err := md.Step(60); err != nil {
				t.Fatal(err)
			}
		}
		if err := gr.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := md.Verify(); err != nil {
			t.Fatal(err)
		}
		return md.Fingerprint(), gr.Group.Clock.Now()
	}

	reversed := func(n int) []int {
		o := make([]int, n)
		for i := range o {
			o[i] = n - 1 - i
		}
		return o
	}

	for _, n := range []int{2, 4, 8} {
		for _, seed := range []int64{3, 11} {
			fp1, clk1 := run(n, seed, nil)
			fp2, clk2 := run(n, seed, nil)
			if fp1 != fp2 || clk1 != clk2 {
				t.Fatalf("N=%d seed %d: rerun diverged (fp %#x/%#x, clock %v/%v)",
					n, seed, fp1, fp2, clk1, clk2)
			}
			fp3, clk3 := run(n, seed, reversed(n))
			if fp1 != fp3 || clk1 != clk3 {
				t.Fatalf("N=%d seed %d: merge order changed the result (fp %#x/%#x, clock %v/%v)",
					n, seed, fp1, fp3, clk1, clk3)
			}
		}
		// Different seeds must not collide (sanity that the fingerprint has
		// teeth at this scale).
		fpA, _ := run(n, 3, nil)
		fpB, _ := run(n, 11, nil)
		if fpA == fpB {
			t.Fatalf("N=%d: different seeds produced identical fingerprints", n)
		}
	}
}

// TestMultiMutatorOverlap checks the time model end-to-end on a real
// workload: with N mutators interleaving on one clock, collector pause work
// beyond the sync portion overlaps other mutators, so the wall-clock
// makespan is shorter than the serial clock and the group records non-empty
// all-stopped intervals for MMU.
func TestMultiMutatorOverlap(t *testing.T) {
	gr, err := rig.New(rig.Config{Collector: rig.RT, Params: multiParams(), Members: 4})
	if err != nil {
		t.Fatal(err)
	}
	md, err := gctest.NewMultiDriver(gr.Group, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 60; round++ {
		if err := md.Step(80); err != nil {
			t.Fatal(err)
		}
	}
	if err := md.Verify(); err != nil {
		t.Fatal(err)
	}
	st := gr.GC.Stats()
	if st.MinorCollections == 0 {
		t.Fatal("workload drove no minor collections; overlap leg is vacuous")
	}
	if r := gr.Group.OverlapRatio(); r <= 1 {
		t.Fatalf("overlap ratio = %v, want > 1 (collector work overlapped nothing)", r)
	}
	ps := gr.Group.GroupPauses().Pauses
	if len(ps) == 0 {
		t.Fatal("no all-stopped intervals recorded")
	}
	for i, p := range ps {
		if p.Length <= 0 || p.Sync != p.Length {
			t.Fatalf("group pause %d malformed: %+v", i, p)
		}
	}
	mmu := simtime.MMUFromPauses(ps, gr.Group.Elapsed(), 20*simtime.Millisecond)
	if mmu < 0 || mmu >= 1 {
		t.Fatalf("MMU@20ms = %v, want in (0, 1) for a run with pauses", mmu)
	}
	for i := range gr.Group.Members {
		u := gr.Group.Utilization(i)
		if u <= 0 || u > 1 {
			t.Fatalf("member %d utilization %v out of range", i, u)
		}
	}
}

// TestRunMultiSection produces the schema-6 multi-mutator scaling section at
// quick scale and holds it to the same shape checks `rtgc-bench validate`
// applies to the committed artifact — including the N = 1 identity anchor
// and overlap ratios above 1 for every N ≥ 2 leg.
func TestRunMultiSection(t *testing.T) {
	legs, err := RunMulti(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMulti(legs); err != nil {
		t.Fatal(err)
	}
	// Regenerating the same scale must reproduce the committed fingerprints
	// and times exactly: the section is a determinism artifact, not a
	// measurement with noise.
	again, err := RunMulti(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for i := range legs {
		if !reflect.DeepEqual(legs[i], again[i]) {
			t.Fatalf("N=%d: rerun changed the leg:\n%+v\n%+v", legs[i].Mutators, legs[i], again[i])
		}
	}
}

// TestParallelGroupTorture drives a goroutine-backed group — real
// parallelism with a stop-the-world rendezvous around collections — and
// verifies every member's shadow graph afterwards. Interleavings are
// runtime-scheduled, so this is a correctness (and, under `make race`, a
// data-race) exercise, not a determinism one.
func TestParallelGroupTorture(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 200 << 10, NurseryCapBytes: 2 << 20, OldSemiBytes: 8 << 20})
	pg := core.NewParallelGroup(h, simtime.Default1993(), core.LogAllMutations, 4)
	gc := core.NewReplicating(pg.G.H, core.Config{
		NurseryBytes:        200 << 10,
		MajorThresholdBytes: 1 << 20,
		CopyLimitBytes:      100 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	})
	pg.AttachGC(gc)

	drivers := make([]*gctest.Driver, len(pg.G.Members))
	fns := make([]func(*core.Mutator) error, len(pg.G.Members))
	for i, m := range pg.G.Members {
		d := gctest.NewDriver(m, int64(100+i))
		drivers[i] = d
		fns[i] = func(*core.Mutator) error {
			for k := 0; k < 400; k++ {
				pg.Safepoint()
				if err := d.Step(10); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for i, err := range pg.Run(fns) {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	// All workers exited; the world is quiescent.
	if err := gc.FinishCycles(pg.G.Members[0]); err != nil {
		t.Fatal(err)
	}
	for i, d := range drivers {
		if err := d.Verify(); err != nil {
			t.Fatalf("member %d shadow mismatch: %v", i, err)
		}
	}
	if err := core.AuditHeap(pg.G.Members[0]); err != nil {
		t.Fatal(err)
	}
}
