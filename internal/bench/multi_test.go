package bench

import (
	"reflect"
	"testing"

	"repligc/internal/gctest"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

func multiParams() Params {
	return Params{OBytes: 1 << 20, NBytes: 200 << 10, LBytes: 100 << 10}
}

// TestMultiMutatorDeterminismMatrix pins that N-mutator runs are exact
// functions of the seed: same seed → identical combined fingerprint and
// identical final clock, for N in {2, 4, 8}.
func TestMultiMutatorDeterminismMatrix(t *testing.T) {
	run := func(n int, seed int64) (uint64, simtime.Duration) {
		gr, err := rig.New(rig.Config{Collector: rig.RT, Params: multiParams(), Members: n})
		if err != nil {
			t.Fatal(err)
		}
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

	for _, n := range []int{2, 4, 8} {
		fps := map[int64]uint64{}
		for _, seed := range []int64{3, 11} {
			fp1, clk1 := run(n, seed)
			fp2, clk2 := run(n, seed)
			if fp1 != fp2 || clk1 != clk2 {
				t.Fatalf("N=%d seed %d: rerun diverged (fp %#x/%#x, clock %v/%v)",
					n, seed, fp1, fp2, clk1, clk2)
			}
			fps[seed] = fp1
		}
		// Different seeds must not collide (sanity that the fingerprint has
		// teeth at this scale).
		if fps[3] == fps[11] {
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

// TestEightMembersOneOverrun: eight torture drivers on one heap under rt in
// the paper's 50 ms cell (seed 42, 400 rounds of 80-operation quanta, then
// Finish) take one counted overrun, and it is the last pause, inside Finish:
// the 8.2 ms root pass every FinishCycles pause spends on an empty minor,
// then a 44.7 ms flip of 9 124 worklist entries let through at the deferral
// cap. The pause still fits the 57.6 ms bound.
func TestEightMembersOneOverrun(t *testing.T) {
	rt, err := rig.New(rig.Config{Collector: rig.RT, Params: perfParams(), Members: 8})
	if err != nil {
		t.Fatal(err)
	}
	md, err := gctest.NewMultiDriver(rt.Group, 42)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 400; round++ {
		if err := md.Step(80); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	ps := st.Pauses.Pauses
	if len(ps) != 66 || st.GC.Overruns != 1 {
		t.Fatalf("%d pauses, %d overruns; want 66 and 1", len(ps), st.GC.Overruns)
	}
	for i, p := range ps[:len(ps)-1] {
		if p.Overrun > 0 {
			t.Errorf("pause %d overran by %v; only the last pause should", i, p.Overrun)
		}
	}
	last := ps[len(ps)-1]
	ms := func(d simtime.Duration) float64 { return d.Milliseconds() }
	got := []float64{ms(last.Length), ms(last.Overrun), ms(last.PhaseTime[simtime.PhaseRootScan]), ms(last.PhaseTime[simtime.PhaseFlip]),
		float64(last.FlipEntries), float64(last.RootSlots)}
	want := []float64{52.848, 44.692, 8.176, 44.672, 9124, 8176}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the last pause: length, overrun, root pass, flip (ms), worklist entries, root slots = %v, want %v", got, want)
	}
	if bound := perfPauseBoundMs(); ms(last.Length) > bound {
		t.Errorf("the overrun is %v long, over the %.1f ms bound", last.Length, bound)
	}
}
