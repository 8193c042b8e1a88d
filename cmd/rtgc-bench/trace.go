package main

// The "trace" subcommand; "validate" is the matching artifact check CI runs.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repligc/internal/bench"
	"repligc/internal/rig"
	"repligc/internal/trace"
)

// tracePath derives the per-workload output file: "x.json" for Primes
// becomes "x-primes.json".
func tracePath(out, workload string) string {
	ext := filepath.Ext(out)
	return out[:len(out)-len(ext)] + "-" + strings.ToLower(workload) + ext
}

// workloadNames lists bench.Workloads' names, in its order.
func workloadNames() []string {
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// runTrace runs one workload (or, with workload == "", all three) under rt
// in the paper's 50 ms parameter cell, printing the run's report, the worst
// pauses when asked for and the pause-bound check, which fails the command,
// and — when out is non-empty, the only case that attaches a flight recorder
// — writing a Chrome trace per workload.
//
//gclint:allow io -- writes the Chrome trace artifact per workload
func runTrace(s bench.Scale, workload, out string, worst int) error {
	names := workloadNames()
	if workload != "" {
		names = []string{workload}
	}
	params := bench.PaperParams()[0]
	for _, name := range names {
		w, err := bench.WorkloadByName(name, s)
		if err != nil {
			return fmt.Errorf("%w (want %s)", err, strings.Join(workloadNames(), ", "))
		}
		var tr *trace.Recorder
		if out != "" {
			tr = trace.NewRecorder(1 << 20)
		}
		res, err := bench.Run(w, rig.Config{Collector: rig.RT, Params: params, Trace: tr})
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		fmt.Print(res.Text(fmt.Sprintf("%s at %v", w.Name(), params)))
		if worst > 0 {
			fmt.Print(res.Pauses.WorstPausesTable(worst))
		}
		// The pause bound (DESIGN.md, "Pause bound") over every pause that had
		// a budget: no such pause is longer than copying 2L + L/4 bytes takes,
		// whatever it spent the time on, or copies more than that. A completion
		// attempt the gate let through although it did not fit is the one
		// exemption from the length, and is listed.
		text, err := res.CheckPauseBound()
		fmt.Print(text)
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
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
		fmt.Printf("wrote %s (%d events, %d dropped)\n", path, tr.Len(), tr.Dropped())
	}
	return nil
}
