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

// runTrace traces one workload (or, with workload == "", all three) under
// rt in the paper's 50 ms parameter cell, printing the digest and — when
// out is non-empty — writing a Chrome trace per workload.
//
//gclint:io writes the Chrome trace artifact per workload
func runTrace(s bench.Scale, workload, out string) error {
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
		_, err = bench.Run(w, rig.Config{Collector: rig.RT, Params: params, Trace: tr})
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		an, err := trace.Analyze(tr.Events())
		if err != nil {
			return fmt.Errorf("trace %s: %w", w.Name(), err)
		}
		fmt.Print(trace.Summary(fmt.Sprintf("%s (%s, %v)", w.Name(), rig.RT.Name, params), an, tr.Dropped()))
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
