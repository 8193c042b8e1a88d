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

	"repligc/internal/checkpoint"
	"repligc/internal/core"
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

// runLeg runs w under one leg in cell p. A checkpointed leg keeps its
// artifacts in a throwaway directory the checkpoint package owns.
func runLeg(w Workload, p Params, naiveBarrier, checkpointed bool) (*Result, error) {
	rc := rig.Config{Collector: rig.RT, Params: p, NaiveBarrier: naiveBarrier}
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
			r, err := runLeg(w, perfParams(), l.naiveBarrier, l.checkpointed)
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
	return rep, nil
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
			// budget is held to it.
			case leg.Unbudgeted == 0 && leg.PauseMaxMs > bound:
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
	return nil
}
