package main

// The "perf" subcommand: the report is internal/bench's, a pure function of
// the tree; this file validates and writes it.

import (
	"fmt"

	"repligc/internal/bench"
)

// runPerf builds the full report and writes it to outPath ("" = stdout).
func runPerf(s bench.Scale, scaleName, outPath string) error {
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
	if err := writeReport(data, outPath); err != nil || outPath == "" {
		return err
	}
	fmt.Printf("wrote %s (%d workloads)\n", outPath, len(rep.Workloads))
	return nil
}
