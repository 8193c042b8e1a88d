package bench

// The perf trajectory (the `rtgc-bench perf` report): a machine-readable
// before/after comparison of the naive append-every-store write barrier against the
// coalescing barrier (dirty stamps + nursery fast path), per workload, under
// the full real-time configuration. "Before" is the same collector with
// coalescing disabled (rig.Config.NaiveBarrier), so both legs run identical
// workload code over the identical cost model and differ only in how the
// mutation log represents the exception set.
//
// Every number is simulated time or a count (deterministic, cost-model
// units), so the report is a pure function of the tree. Host cost is measured
// in one place only: the ledger of benchmarks/host.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/workload"
)

// PerfSchema identifies the report layout; bump on incompatible change. Every
// member is simulated, so deterministic and gated. The constant aliases
// workload.ReportSchema so the two producers of the schema cannot drift
// apart.
const PerfSchema = workload.ReportSchema

// PerfReport is the document `rtgc-bench perf` emits.
type PerfReport struct {
	Schema string `json:"schema"`
	Params string `json:"params"` // O/N/L of every leg; each row names its collector
	Scale  string `json:"scale"`  // "default" or "quick"

	Workloads []PerfWorkload `json:"workloads"`

	// Serving is the schema-5 section: the standard serving mix
	// (DefaultServeSpec) under the naive-barrier and coalesced legs, with
	// per-cohort latency percentiles, SLO breakdowns, queue stats,
	// pause-intrusion attribution and request-granularity MMU.
	Serving *workload.Section `json:"serving"`

	// Multi is the schema-6 section: the same seeded group workload run
	// with N ∈ {1, 2, 4, 8} mutator contexts sharing one heap under the
	// full real-time configuration. The N = 1 leg doubles as the identity
	// anchor (overlap ratio exactly 1, wall equals the serial clock); the
	// N ≥ 2 legs demonstrate collection genuinely overlapping mutators.
	Multi []MultiLeg `json:"multi_mutator"`
}

// MultiLeg is one N-mutator scaling cell of the multi-mutator section. All
// times are simulated: the run's elapsed time is the shared serial clock
// (total work done by every actor), WallMs the projected makespan in which
// only each pause's synchronous portion stops all mutators, and OverlapRatio
// their quotient — greater than 1 means collector work genuinely ran while
// mutators ran.
type MultiLeg struct {
	Mutators       int       `json:"mutators"`
	WallMs         float64   `json:"wall_ms"`
	OverlapRatio   float64   `json:"overlap_ratio"`
	Utilization    []float64 `json:"utilization"`  // per-mutator, on the wall timeline
	GroupPauses    int       `json:"group_pauses"` // all-mutators-stopped intervals
	SyncPauseMaxMs float64   `json:"sync_pause_max_ms"`
	MMU20Ms        float64   `json:"mmu_20ms"` // over the all-stopped intervals, wall timeline
	// Fingerprint anchors determinism: the combined reachable-graph hash of
	// every member plus the shared contended array, stable across reruns
	// for a given (N, seed).
	Fingerprint string  `json:"fingerprint"`
	Run         rig.Row `json:"run"`
}

// PerfWorkload compares the barrier legs on one workload.
type PerfWorkload struct {
	Name         string  `json:"name"`
	Baseline     rig.Row `json:"baseline"`     // NaiveBarrier: true
	Coalesced    rig.Row `json:"coalesced"`    // the coalescing barrier
	Checkpointed rig.Row `json:"checkpointed"` // coalesced + incremental checkpoint writer

	// ReapplyReductionPct is the headline number: the percentage of the
	// baseline's re-applied log entries that coalescing eliminated.
	ReapplyReductionPct float64 `json:"reapply_reduction_pct"`
	// AppendReductionPct is the same for barrier-side log appends.
	AppendReductionPct float64 `json:"append_reduction_pct"`
	// CheckpointOverheadPct is what crash consistency cost: the checkpointed
	// leg's simulated elapsed time over the coalesced leg's, as a percentage.
	CheckpointOverheadPct float64 `json:"checkpoint_overhead_pct"`
}

// perfPauseBoundMs is the pause bound of the perf cell (DESIGN.md, "Pause
// bound"): what a budgeted pause of its rt legs lasts at most.
func perfPauseBoundMs() float64 {
	return core.Config{CopyLimitBytes: perfParams().LBytes}.PauseBoundTime(simtime.Default1993()).Milliseconds()
}

// reductionPct returns how much of base the coalesced leg eliminated, as a
// percentage; 0 when the baseline did none of the work.
func reductionPct(base, coal int64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - float64(coal)/float64(base))
}

// perfParams is the parameter cell every leg runs under: the paper's 50 ms
// pause target (O = 1 MB, N = 0.2 MB, L = 100 KB), the cell every workload
// collects frequently in.
func perfParams() Params { return PaperParams()[0] }

// perfLegs are the runs every workload gets, in report order: rt in the perf
// cell, plus the leg's delta.
var perfLegs = [...]struct {
	tag          string
	naiveBarrier bool // the append-every-store barrier coalescing replaced
	checkpointed bool // the incremental checkpoint writer attached
}{{"baseline", true, false}, {"coalesced", false, false}, {"checkpointed", false, true}}

// legs lists w's runs in perfLegs order.
func (w *PerfWorkload) legs() [len(perfLegs)]*rig.Row {
	return [...]*rig.Row{&w.Baseline, &w.Coalesced, &w.Checkpointed}
}

// runLeg runs w under one leg. A checkpointed leg keeps its artifacts in a
// throwaway directory the checkpoint package owns.
func runLeg(w Workload, naiveBarrier, checkpointed bool) (*Result, error) {
	rc := rig.Config{Collector: rig.RT, Params: perfParams(), NaiveBarrier: naiveBarrier}
	if checkpointed {
		dir, cleanup, err := checkpoint.TempDir("rtgc-bench-ckpt-")
		if err != nil {
			return nil, err
		}
		defer cleanup()
		// One epoch per 4 MB allocated, 64 KB of copying per pause: the
		// steady-state cadence, not back-to-back snapshots.
		rc.Checkpoint = checkpoint.NewWriter(checkpoint.Config{Dir: dir, BudgetBytes: 64 << 10, EveryBytes: 4 << 20})
	}
	return Run(w, rc)
}

// RunPerf runs the paper's workloads under every leg and assembles the
// report.
func RunPerf(s Scale, scaleName string) (*PerfReport, error) {
	rep := &PerfReport{Schema: PerfSchema, Params: perfParams().String(), Scale: scaleName}
	for _, wl := range Workloads {
		w := wl.New(s)
		pw := PerfWorkload{Name: wl.Name}
		var output string
		for i, l := range perfLegs {
			r, err := runLeg(w, l.naiveBarrier, l.checkpointed)
			if err != nil {
				return nil, fmt.Errorf("perf %s %s: %w", wl.Name, l.tag, err)
			}
			if i > 0 && r.Output != output {
				return nil, fmt.Errorf("perf %s: the %s leg computed a different result than the %s leg", wl.Name, l.tag, perfLegs[0].tag)
			}
			output, *pw.legs()[i] = r.Output, r.Row()
		}
		base, coal, ckpt := &pw.Baseline, &pw.Coalesced, &pw.Checkpointed
		pw.ReapplyReductionPct = reductionPct(base.LogReapplied, coal.LogReapplied)
		pw.AppendReductionPct = reductionPct(base.LogAppended, coal.LogAppended)
		if coal.ElapsedMs > 0 {
			pw.CheckpointOverheadPct = 100 * (ckpt.ElapsedMs - coal.ElapsedMs) / coal.ElapsedMs
		}
		rep.Workloads = append(rep.Workloads, pw)
	}
	serving, err := RunServing(s)
	if err != nil {
		return nil, err
	}
	rep.Serving = serving
	multi, err := RunMulti(s)
	if err != nil {
		return nil, err
	}
	rep.Multi = multi
	return rep, nil
}

// multiSeed seeds the multi-mutator legs; one fixed seed keeps the committed
// fingerprints comparable across regenerations.
const multiSeed = 42

// multiLadder is the mutator counts of the scaling legs, in report order.
var multiLadder = []int{1, 2, 4, 8}

// RunMulti runs the multi-mutator scaling legs: the seeded group workload
// (per-member graph drivers plus a shared contended array) under the full
// real-time configuration with N ∈ {1, 2, 4, 8} mutator contexts on one
// heap and one simulated clock.
func RunMulti(s Scale) ([]MultiLeg, error) {
	var legs []MultiLeg
	for _, n := range multiLadder {
		rt, err := rig.New(rig.Config{Collector: rig.RT, Params: perfParams(), Members: n})
		if err != nil {
			return nil, fmt.Errorf("multi N=%d: %w", n, err)
		}
		g := rt.Group
		md, err := gctest.NewMultiDriver(g, multiSeed)
		if err != nil {
			return nil, fmt.Errorf("multi N=%d: %w", n, err)
		}
		for round := 0; round < s.MultiRounds; round++ {
			if err := md.Step(80); err != nil {
				return nil, fmt.Errorf("multi N=%d round %d: %w", n, round, err)
			}
		}
		if err := rt.Finish(); err != nil {
			return nil, fmt.Errorf("multi N=%d finish: %w", n, err)
		}
		run := rt.Stats().Row() // before the fingerprint, whose graph walk charges the clock
		leg := MultiLeg{
			Mutators:     n,
			WallMs:       g.Elapsed().Milliseconds(),
			OverlapRatio: g.OverlapRatio(),
			GroupPauses:  len(g.GroupPauses().Pauses),
			Fingerprint:  fmt.Sprintf("%016x", md.Fingerprint()),
			Run:          run,
		}
		for i := range g.Members {
			leg.Utilization = append(leg.Utilization, g.Utilization(i))
		}
		leg.SyncPauseMaxMs = g.GroupPauses().Max().Milliseconds()
		leg.MMU20Ms = simtime.MMUFromPauses(g.GroupPauses().Pauses, g.Elapsed(), 20*simtime.Millisecond)
		// Verification re-reads the whole heap through the mutators and
		// charges the serial clock; it is a correctness gate, not part of the
		// measured run, so the leg is distilled first.
		if err := md.Verify(); err != nil {
			return nil, fmt.Errorf("multi N=%d verify: %w", n, err)
		}
		legs = append(legs, leg)
	}
	return legs, nil
}

// ComparePerf gates a fresh report against a committed baseline: every
// member must be equal — simulated times, pause quantiles, every MMU point,
// log counts, fingerprints, the serving and multi-mutator sections. Nothing
// is exempt. Simulated numbers do not vary across machines or runs, so there
// is no tolerance: a deliberate collector or cost-model change regenerates
// the baseline (make bench-baseline).
func ComparePerf(fresh, baseline []byte) error {
	var fr, br map[string]any
	if err := json.Unmarshal(fresh, &fr); err != nil {
		return fmt.Errorf("fresh perf report: %w", err)
	}
	if err := json.Unmarshal(baseline, &br); err != nil {
		return fmt.Errorf("baseline perf report: %w", err)
	}
	if at, f, b := firstDiff("", fr, br); at != "" {
		return fmt.Errorf("perf baseline: %s is %v, baseline has %v; simulated numbers are deterministic, so either the change moved them (explain it and run make bench-baseline) or the reports differ in scale or schema", at, f, b)
	}
	return nil
}

// missing stands in firstDiff's result for a member one side does not have;
// a JSON null that is present is reported as <nil>, so the two stay apart.
const missing = "(missing)"

// firstDiff walks two decoded JSON documents in step and returns the path
// and the two values at the first place they differ ("" when equal). Object
// keys — the union of both sides' — are visited in sorted order so the report
// is stable.
func firstDiff(path string, a, b any) (string, any, any) {
	am, aok := a.(map[string]any)
	bm, bok := b.(map[string]any)
	as, asok := a.([]any)
	bs, bsok := b.([]any)
	switch {
	case aok && bok:
		keys := make([]string, 0, len(am))
		for k := range am { //gclint:allow maprange -- the keys are sorted below
			keys = append(keys, k)
		}
		for k := range bm { //gclint:allow maprange -- the keys are sorted below
			if _, ok := am[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			av, ain := am[k]
			bv, bin := bm[k]
			switch {
			case !ain:
				return path + "." + k, missing, bv
			case !bin:
				return path + "." + k, av, missing
			}
			if at, x, y := firstDiff(path+"."+k, av, bv); at != "" {
				return at, x, y
			}
		}
	case asok && bsok && len(as) == len(bs):
		for i := range as {
			if at, x, y := firstDiff(fmt.Sprintf("%s[%d]", path, i), as[i], bs[i]); at != "" {
				return at, x, y
			}
		}
	case asok && bsok:
		return path + " (length)", len(as), len(bs)
	case !reflect.DeepEqual(a, b):
		return path, a, b
	}
	return "", nil, nil
}

// ValidatePerf checks that data parses as a PerfReport with the current
// schema, all three workloads, and internally-consistent numbers. It is the
// CI smoke check: shape and sanity, never thresholds on the measurements
// themselves.
func ValidatePerf(data []byte) error {
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("perf report: %w", err)
	}
	if rep.Schema != PerfSchema {
		return fmt.Errorf("perf report: schema %q, want %q", rep.Schema, PerfSchema)
	}
	want := make(map[string]bool, len(Workloads))
	for _, w := range Workloads {
		want[w.Name] = false
	}
	for _, w := range rep.Workloads {
		seen, ok := want[w.Name]
		if !ok {
			return fmt.Errorf("perf report: unknown workload %q", w.Name)
		}
		if seen {
			return fmt.Errorf("perf report: duplicate workload %q", w.Name)
		}
		want[w.Name] = true
		for i, leg := range w.legs() {
			l := perfLegs[i]
			err := leg.Check()
			switch bound := perfPauseBoundMs(); {
			case err != nil: // the row itself is implausible
			case leg.Pauses == 0:
				err = fmt.Errorf("run collected nothing")
			case (leg.Checkpoint != nil) != l.checkpointed:
				err = fmt.Errorf("checkpoint writer attached: %v, want %v", leg.Checkpoint != nil, l.checkpointed)
			case l.naiveBarrier && (leg.NurserySkips != 0 || leg.DirtySkips != 0):
				err = fmt.Errorf("the append-every-store barrier reports fast-path skips")
			// The floor under the pause bound: a leg whose every pause had a
			// budget, and no checkpoint increment on top, is held to it.
			case !l.checkpointed && leg.Unbudgeted == 0 && leg.PauseMaxMs > bound:
				err = fmt.Errorf("pause_max_ms = %.3f exceeds the pause bound %.1f ms and no unbudgeted pause is listed", leg.PauseMaxMs, bound)
			}
			if err != nil {
				return fmt.Errorf("perf report: %s %s: %w", w.Name, l.tag, err)
			}
		}
	}
	for _, w := range Workloads {
		if !want[w.Name] {
			return fmt.Errorf("perf report: workload %q missing", w.Name)
		}
	}
	if rep.Serving == nil {
		return fmt.Errorf("perf report: serving section missing (schema %s requires it)", PerfSchema)
	}
	if err := rep.Serving.Check(); err != nil {
		return fmt.Errorf("perf report: %w", err)
	}
	if err := checkMulti(rep.Multi); err != nil {
		return fmt.Errorf("perf report: %w", err)
	}
	return nil
}

// checkMulti validates the multi-mutator section: the standard
// scaling ladder, an exact-identity N = 1 anchor, and genuine overlap
// (ratio > 1) on every N ≥ 2 leg.
func checkMulti(legs []MultiLeg) error {
	if len(legs) != len(multiLadder) {
		return fmt.Errorf("multi section has %d legs, want %d (schema %s requires it)", len(legs), len(multiLadder), PerfSchema)
	}
	for i, leg := range legs {
		if leg.Mutators != multiLadder[i] {
			return fmt.Errorf("multi leg %d: mutators = %d, want %d", i, leg.Mutators, multiLadder[i])
		}
		run := &leg.Run
		if err := run.Check(); err != nil {
			return fmt.Errorf("multi N=%d: %w", leg.Mutators, err)
		}
		if err := simtime.CheckNonNegative([]simtime.Measure{
			{"wall_ms", leg.WallMs}, {"overlap_ratio", leg.OverlapRatio},
			{"sync_pause_max_ms", leg.SyncPauseMaxMs}, {"mmu_20ms", leg.MMU20Ms},
		}); err != nil {
			return fmt.Errorf("multi N=%d: %w", leg.Mutators, err)
		}
		if run.MinorCollections == 0 || leg.GroupPauses == 0 {
			return fmt.Errorf("multi N=%d: leg did no collected work (%d minors, %d group pauses)",
				leg.Mutators, run.MinorCollections, leg.GroupPauses)
		}
		if leg.WallMs > run.ElapsedMs {
			return fmt.Errorf("multi N=%d: wall %.3f ms exceeds serial work %.3f ms", leg.Mutators, leg.WallMs, run.ElapsedMs)
		}
		if leg.Mutators == 1 {
			// The identity anchor: one mutator overlaps nothing, so the wall
			// timeline must be the serial clock exactly.
			if leg.OverlapRatio != 1 {
				return fmt.Errorf("multi N=1: overlap ratio %v, want exactly 1", leg.OverlapRatio)
			}
		} else if leg.OverlapRatio <= 1 {
			return fmt.Errorf("multi N=%d: overlap ratio %v, want > 1 (collection overlapped no mutator time)",
				leg.Mutators, leg.OverlapRatio)
		}
		if len(leg.Utilization) != leg.Mutators {
			return fmt.Errorf("multi N=%d: %d utilization entries", leg.Mutators, len(leg.Utilization))
		}
		for j, u := range leg.Utilization {
			if math.IsNaN(u) || u <= 0 || u > 1 {
				return fmt.Errorf("multi N=%d: mutator %d utilization %v outside (0, 1]", leg.Mutators, j, u)
			}
		}
		if bound := perfPauseBoundMs(); run.Unbudgeted == 0 && leg.SyncPauseMaxMs > bound {
			return fmt.Errorf("multi N=%d: sync_pause_max_ms = %.3f exceeds the pause bound %.1f ms and no unbudgeted pause is listed", leg.Mutators, leg.SyncPauseMaxMs, bound)
		}
		if leg.MMU20Ms >= 1 {
			return fmt.Errorf("multi N=%d: MMU@20ms = %v with %d group pauses", leg.Mutators, leg.MMU20Ms, leg.GroupPauses)
		}
		if len(leg.Fingerprint) != 16 {
			return fmt.Errorf("multi N=%d: fingerprint %q is not 16 hex digits", leg.Mutators, leg.Fingerprint)
		}
	}
	return nil
}
