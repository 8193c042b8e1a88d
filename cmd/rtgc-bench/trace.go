package main

// The "trace" subcommand; "validate" is the matching artifact check CI runs.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repligc/internal/bench"
	"repligc/internal/core"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// tracePath derives the per-workload output file: "x.json" for Primes
// becomes "x-primes.json".
func tracePath(out, workload string) string {
	ext := filepath.Ext(out)
	return out[:len(out)-len(ext)] + "-" + strings.ToLower(workload) + ext
}

// runTrace traces one workload (or, with workload == "", all three) under
// rt in the paper's 50 ms parameter cell, printing the digest, the worst
// pauses when asked for and the copy-bound and flip-bound checks, which fail
// the command, and — when out is non-empty — writing a Chrome trace per
// workload.
//
//gclint:io writes the Chrome trace artifact per workload
func runTrace(s bench.Scale, workload, out string, worst int) error {
	names := bench.PerfWorkloads
	if workload != "" {
		names = []string{workload}
	}
	params := bench.PaperParams()[0]
	for _, name := range names {
		w, err := bench.WorkloadByName(name, s)
		if err != nil {
			return fmt.Errorf("%w (want %s)", err, strings.Join(bench.PerfWorkloads, ", "))
		}
		tr := trace.NewRecorder(1 << 20)
		res, err := bench.Run(w, rig.Config{Collector: rig.RT, Params: params, Trace: tr})
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		an, err := trace.Analyze(tr.Events())
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		an.Annotate(res.Pauses.Pauses)
		fmt.Print(trace.Summary(fmt.Sprintf("%s (%s, %v)", w.Name(), rig.RT.Name, params), an, tr.Dropped()))
		if worst > 0 {
			fmt.Print(trace.WorstPausesTable(an, worst))
		}
		// The copy and flip terms of the pause bound (DESIGN.md, "Pause
		// bound") over every pause that had a budget — the collector's own
		// record, unlike the trace, says which were forced or emergencies: no
		// such pause copies more than 2L + L/4 bytes, or spends longer
		// copying, scanning and flipping than copying that many takes. A flip
		// the gate let through although it did not fit is listed, and held to
		// the bound too.
		cfg := core.Config{CopyLimitBytes: params.LBytes}
		bound, flipBound := cfg.PauseCopyBound(), cfg.PauseBoundTime(simtime.Default1993())
		most, longest := int64(0), simtime.Duration(0)
		for _, d := range an.WorstPauses(len(an.Pauses)) {
			if d.Forced {
				continue
			}
			spent := d.Phases[trace.PhaseCopy] + d.Phases[trace.PhaseFlip]
			if d.FlipOverrun {
				fmt.Printf("flip overrun: pause %d re-pointed %d worklist and %d root slots, %v copying and flipping\n", d.Index, d.FlipEntries, d.RootSlots, spent)
			}
			most, longest = max(most, d.CopiedB), max(longest, spent)
			if d.CopiedB > bound {
				return fmt.Errorf("trace %s: pause %d copied %d B, over the bound 2L + L/4 = %d B", w.Name(), d.Index, d.CopiedB, bound)
			}
			if spent > flipBound {
				return fmt.Errorf("trace %s: pause %d spent %v copying and flipping (%d worklist slots), over the bound %v", w.Name(), d.Index, spent, d.FlipEntries, flipBound)
			}
		}
		fmt.Printf("copy bound: the most one budgeted pause copied is %d B of 2L + L/4 = %d B; largest uninterrupted copy %d B, %d copies split\n",
			most, bound, res.Stats.LargestCopyBytes, res.Stats.SplitCopies)
		fmt.Printf("flip bound: the most one budgeted pause spent copying and flipping is %v of %v; %d flips deferred, %d overran, largest worklist %d slots\n",
			longest, flipBound, res.Stats.FlipDeferrals, res.Stats.FlipOverruns, res.Stats.LargestFlipWorklist)
		if out == "" {
			continue
		}
		labels := map[string]string{
			"workload":  w.Name(),
			"collector": rig.RT.Name,
			"params":    params.String(),
		}
		data, err := trace.ChromeTrace(tr.Events(), labels)
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		// Self-check before writing: an artifact that would fail
		// validate must never be produced in the first place.
		if err := trace.ValidateChrome(data); err != nil {
			return fmt.Errorf("trace %s: emitted trace failed validation: %w", w.Name(), err)
		}
		path := tracePath(out, w.Name())
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		fmt.Printf("wrote %s (%d events)\n", path, tr.Len())
	}
	return nil
}
