package core_test

import (
	"fmt"
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/lang"
	"repligc/internal/vm"
)

// paperRT is the paper's 50 ms cell under rt: N = 0.2 MB, O = 1 MB,
// L = 100 KB — the configuration the repository benchmark builds.
func paperRT() core.Config {
	return core.Config{
		NurseryBytes:        200 << 10,
		MajorThresholdBytes: 1 << 20,
		CopyLimitBytes:      100 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
}

// holdsLargeArray is a MiniML program that keeps a 60 000-slot array — the
// size of the repository benchmark's Sort output array, allocated directly in
// the old generation — alive and mutated at both ends while it promotes
// several megabytes of lists, so that the major collection copies the array
// once per cycle.
const holdsLargeArray = `
let out = array 60000 0 in
fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
fun len l a = case l of [] => a | x :: r => len r (a + 1) in
fun loop k acc =
  if k = 0 then acc
  else (aset out k k; aset out (59999 - k) k;
        loop (k - 1) (acc + len (build 20000 []) 0)) in
let total = loop 16 0 in
print (itos total ^ " " ^ itos (aget out 3) ^ " " ^ itos (aget out 59996) ^ "\n")
`

// TestPauseCopyBound holds the copy term of the pause bound (DESIGN.md,
// "Pause bound"): no pause that runs under the work limit copies more than
// 2L plus the split threshold L/4, whatever the size of the largest object.
// Stop-the-world pauses (forced completions, emergencies: Sync == Length)
// have no budget and are exempt.
func TestPauseCopyBound(t *testing.T) {
	cfg := paperRT()
	bound := cfg.PauseCopyBound()
	check := func(t *testing.T, gc *core.Replicating) {
		t.Helper()
		worst, at, checked := int64(0), 0, 0
		for i, p := range gc.Pauses().Pauses {
			if p.Sync == p.Length {
				continue
			}
			checked++
			if p.CopiedB > worst {
				worst, at = p.CopiedB, i
			}
		}
		st := gc.Stats()
		if st.MajorCollections < 3 || checked == 0 {
			t.Fatalf("%d majors, %d budgeted pauses: the run is too small to say anything", st.MajorCollections, checked)
		}
		if st.LargestCopyBytes > bound {
			t.Errorf("one uninterrupted copy of %d B against the bound %d B", st.LargestCopyBytes, bound)
		}
		if worst > bound {
			t.Errorf("pause %d copied %d B against the bound 2L + L/4 = %d B", at, worst, bound)
		}
	}

	// Half of the torture driver's nursery survives, so under the paper's N
	// its minor collections leave the major nothing of 2L and no major ever
	// ends; N = 64 KB and O = 256 KB give it three or more. The large objects
	// are 26-52 KB (on both sides of N/2: some start in the nursery and are
	// copied by both generations, some are born old) under seed 1 and
	// 160-320 KB under seed 2.
	cfg.NurseryBytes, cfg.MajorThresholdBytes = 64<<10, 256<<10
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("gctest-seed%d", seed), func(t *testing.T) {
			m, gc := newRun(cfg, core.LogAllMutations)
			d := gctest.NewDriver(m, seed)
			d.LargeEvery, d.LargeWords = 4000, 3300
			if seed%2 == 0 {
				d.LargeEvery, d.LargeWords = 16000, 20000
			}
			for round := 0; round < 40; round++ {
				if err := d.Step(10000); err != nil {
					t.Fatal(err)
				}
			}
			if err := gc.FinishCycles(m); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			check(t, gc)
		})
	}
	t.Run("miniml-60000-slot-array", func(t *testing.T) {
		m, gc := newRun(paperRT(), core.LogAllMutations)
		prog, err := lang.Compile(m, holdsLargeArray)
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(m, prog)
		if err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		if got, want := machine.Output.String(), "320000 3 3\n"; got != want {
			t.Fatalf("program printed %q, want %q", got, want)
		}
		check(t, gc)
	})
}
