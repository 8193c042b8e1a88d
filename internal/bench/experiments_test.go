package bench

import (
	"strings"
	"testing"

	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// sharedQuick is the one quick-scale grid every experiment test queries, so a
// cell two tests read is run once per test binary.
var sharedQuick = NewSuite(QuickScale())

func quickSuite() *Suite { return sharedQuick }

func TestWorkloadOutputsIdenticalAcrossConfigs(t *testing.T) {
	s := quickSuite()
	p := PaperParams()[0]
	for _, w := range Workloads {
		name := w.Name
		var outputs []string
		for _, cfg := range AllPaperConfigs {
			res, err := s.Cell(name, cfg, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			outputs = append(outputs, res.Output)
		}
		for i := 1; i < len(outputs); i++ {
			if outputs[i] != outputs[0] {
				t.Errorf("%s: output differs between %s and %s:\n%q\n%q",
					name, AllPaperConfigs[0].Name, AllPaperConfigs[i].Name, outputs[0], outputs[i])
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	s := quickSuite()
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Workloads)*len(PaperParams()) {
		t.Fatalf("row count = %d", len(rows))
	}
	// The headline result: the real-time collector eliminates the long
	// stop-and-copy pauses. At quick scale only the cells where the
	// baseline actually performed a long (major) pause are meaningful,
	// and at N=1MB the paper's L=0.5MB budget is itself ~250ms of work,
	// so a modest margin is allowed.
	for _, r := range rows {
		if r.SC[2] > 100*simtime.Millisecond && float64(r.RT[2]) > 1.3*float64(r.SC[2]) {
			t.Errorf("%s %v: rt max %v exceeds 1.3x sc max %v",
				r.Workload, r.P, r.RT[2], r.SC[2])
		}
	}
	// The pause bound (DESIGN.md, "Pause bound"), read off each run's record
	// alone: every collector of rig.Table in every cell — the ones figures
	// 8–10 and the ablations read come from the shared grid — and rt in every
	// cell with the perf report's checkpoint writer, whose increments count
	// against the pause's budget and whose commits are unbudgeted pauses.
	for _, w := range Workloads {
		for _, p := range PaperParams() {
			for _, c := range rig.Table {
				res, err := s.Cell(w.Name, c, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := res.CheckPauseBound(); err != nil {
					t.Errorf("%s %v under %s: %v", w.Name, p, c.Name, err)
				}
			}
			res, err := runLeg(w.New(s.Scale), p, false, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.CheckPauseBound(); err != nil {
				t.Errorf("checkpointed %s %v: %v", w.Name, p, err)
			}
			row := res.Row()
			if row.Unbudgeted < res.Checkpoint.Committed {
				t.Errorf("checkpointed %s %v: %d unbudgeted pauses, %d epochs committed", w.Name, p, row.Unbudgeted, res.Checkpoint.Committed)
			}
			if res.Pauses.PhaseTime[simtime.PhaseCheckpoint] == 0 {
				t.Errorf("checkpointed %s %v spent no time in a checkpoint phase", w.Name, p)
			}
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Primes") || !strings.Contains(out, "Max") {
		t.Errorf("format missing content:\n%s", out)
	}
}

func TestHistogramsAndFig7(t *testing.T) {
	s := quickSuite()
	a, b, c, d, err := s.PauseHistograms()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatHistograms(a, b, c, d)
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Figure 6") {
		t.Errorf("histogram format missing figures:\n%s", out)
	}

	comps, err := s.Fig7("Comp", PaperParams()[0])
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, comp := range comps {
		total += comp.Percent
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("fig7 components sum to %.2f%%, want 100%%", total)
	}
	if !strings.Contains(FormatFig7("Comp", comps), "mutator") {
		t.Error("fig7 format missing mutator row")
	}
}

func TestOverheadsShape(t *testing.T) {
	s := quickSuite()
	rows, err := s.Overheads("Sort")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperParams()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Cells) != len(AllPaperConfigs) {
			t.Fatalf("cells = %d", len(row.Cells))
		}
		var sc, rt, scMods OverheadCell
		for _, cell := range row.Cells {
			switch cell.Config {
			case rig.SC.Name:
				sc = cell
			case rig.RT.Name:
				rt = cell
			case rig.SCMods.Name:
				scMods = cell
			}
		}
		if sc.Overhead != 0 {
			t.Errorf("%v: baseline overhead %.2f != 0", row.P, sc.Overhead)
		}
		// Real-time collection costs something relative to the baseline
		// (logging, reapply, flips, latent garbage).
		if rt.Elapsed <= sc.Elapsed {
			t.Errorf("%v: rt elapsed %v <= sc elapsed %v", row.P, rt.Elapsed, sc.Elapsed)
		}
		// The mutator logging mods alone cost less than full rt.
		if scMods.Elapsed > rt.Elapsed {
			t.Errorf("%v: sc-mods %v > rt %v", row.P, scMods.Elapsed, rt.Elapsed)
		}
	}
	if out := FormatOverheads(10, rows); !strings.Contains(out, "Figure 10") {
		t.Errorf("bad overhead format:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	s := quickSuite()
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CRPct < 0 || r.CRPct > 50 || r.CFPct < 0 || r.CFPct > 50 {
			t.Errorf("%s %v: implausible CR/CF percentages: %.2f %.2f",
				r.Workload, r.P, r.CRPct, r.CFPct)
		}
	}
	// Sort mutates most; its reapply cost should exceed Primes'.
	byName := map[string]Table2Row{}
	for _, r := range rows {
		if r.P == PaperParams()[0] {
			byName[r.Workload] = r
		}
	}
	if byName["Sort"].CR < byName["Primes"].CR {
		t.Errorf("Sort CR %v < Primes CR %v", byName["Sort"].CR, byName["Primes"].CR)
	}
	if !strings.Contains(FormatTable2(rows), "%CR") {
		t.Error("table2 format missing header")
	}
}

func TestTable3Shape(t *testing.T) {
	s := quickSuite()
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Latent garbage is normally positive; it can go slightly negative
		// because the incremental collector allocates black during majors
		// (promotions born during a major are never major-copied, while
		// the synchronized stop-and-copy run does copy them).
		if r.GPct < -10 {
			t.Errorf("%s %v: latent garbage %.1f%% too negative", r.Workload, r.P, r.GPct)
		}
		if r.Flips == 0 {
			t.Errorf("%s %v: no synchronized flips", r.Workload, r.P)
		}
	}
	if !strings.Contains(FormatTable3(rows), "Latent garbage") {
		t.Error("table3 format missing title")
	}
}

// TestAblations holds the shared grid's ablations to what the paper's
// barrier shows: lazy log processing (§2.5) defers the entries that name
// nursery objects, so rt-lazy reapplies more than rt on the two workloads
// that mutate; and full logging (§4.5) writes extra entries wherever the
// workload mutates.
func TestAblations(t *testing.T) {
	s := quickSuite()
	lazy, err := s.Ablation(rig.RTLazy)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lazy {
		if r.Workload != "Primes" && r.Var.GC.LogReapplied <= r.Base.GC.LogReapplied {
			t.Errorf("%s: rt-lazy reapplies %d, rt %d; lazy processing changes nothing", r.Workload, r.Var.GC.LogReapplied, r.Base.GC.LogReapplied)
		}
	}
	logpol, err := s.AblationLogPolicy()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range logpol {
		if r.ExtraWrites < 0 {
			t.Errorf("%s: negative extra writes", r.Workload)
		}
		if r.Workload != "Primes" && r.ExtraWrites == 0 {
			t.Errorf("%s: expected extra log writes under full logging", r.Workload)
		}
	}
}

func TestGenerateModuleCompiles(t *testing.T) {
	// Every generated module must be valid MiniML.
	for i := 0; i < 16; i++ {
		src := GenerateModule(i, 40)
		w := &vmWorkload{name: "gen", src: src}
		if _, err := Run(w, rig.Config{Collector: rig.SC, Params: PaperParams()[0]}); err != nil {
			t.Fatalf("module %d: %v\n%s", i, err, src)
		}
	}
}

func TestGenerateModuleDeterministic(t *testing.T) {
	a := GenerateModule(3, 25)
	b := GenerateModule(3, 25)
	if a != b {
		t.Fatal("generator not deterministic")
	}
	if GenerateModule(4, 25) == a {
		t.Fatal("seeds do not differentiate modules")
	}
}

// TestDeferMutablesReducesReapplies checks the §2.5 copy-order benefit on
// the paper's mutation-heavy benchmark: deferring mutable copies to
// completion must cut log reapplication substantially. It reads the shared
// quick grid; docs/full-run.txt holds the full-scale row.
func TestDeferMutablesReducesReapplies(t *testing.T) {
	s := quickSuite()
	p := PaperParams()[0]
	rt, err := s.Cell("Sort", rig.RT, p)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := s.Cell("Sort", rig.RTDefer, p)
	if err != nil {
		t.Fatal(err)
	}
	if deferred.Output != rt.Output {
		t.Fatal("outputs differ")
	}
	if deferred.GC.LogReapplied > rt.GC.LogReapplied*3/4 {
		t.Errorf("deferred reapplies %d not substantially below eager %d",
			deferred.GC.LogReapplied, rt.GC.LogReapplied)
	}
}
