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

// TestRunMultiSection produces the multi-mutator scaling section at
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
