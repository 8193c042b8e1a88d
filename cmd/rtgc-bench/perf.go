package main

// The "perf" subcommand: the report is internal/bench's, a pure function of
// the tree; this file validates, gates and writes it.

import (
	"fmt"
	"os"

	"repligc/internal/bench"
)

// runPerf builds the full report and writes it to outPath ("" = stdout),
// gating it against baselinePath when one is given.
//
//gclint:allow io -- reads the baseline report the fresh one is gated against
func runPerf(s bench.Scale, scaleName, outPath, baselinePath string) error {
	rep, err := bench.RunPerf(s, scaleName)
	if err != nil {
		return err
	}
	data, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if err := bench.ValidatePerf(data); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	if baselinePath != "" {
		base, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("perf baseline: %w", err)
		}
		if err := bench.ComparePerf(data, base); err != nil {
			return err
		}
		fmt.Printf("baseline gate passed against %s (every field equal)\n", baselinePath)
	}
	if err := writeReport(data, outPath); err != nil || outPath == "" {
		return err
	}
	fmt.Printf("wrote %s (%d workloads)\n", outPath, len(rep.Workloads))
	return nil
}
