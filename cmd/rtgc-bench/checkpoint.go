package main

import (
	"fmt"
	"os"

	"repligc/internal/checkpoint"
	"repligc/internal/faultinject"
)

// runCrashMatrix executes the full deterministic crash-point matrix and
// writes the report (schema repligc-crash-matrix/1) to outPath, or stdout
// when empty. A contract violation in any cell is exit-status-failing.
func runCrashMatrix(outPath string) error {
	rep, err := checkpoint.RunCrashMatrix(checkpoint.MatrixConfig{
		Seeds: []uint64{1, 2, 3},
		Plans: faultinject.CrashPlans(0xc0ffee, 12),
	})
	if err != nil {
		return fmt.Errorf("crash matrix: %w", err)
	}
	if err := rep.Check(); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	data, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if err := writeReport(data, outPath); err != nil {
		return err
	}
	outcomes := map[string]int{}
	for _, c := range rep.Cases {
		outcomes[c.Outcome]++
	}
	fmt.Fprintf(os.Stderr, "crash matrix: %d cases (%d recovered, %d corruption-rejected), %d failures\n",
		len(rep.Cases), outcomes["recovered"], outcomes["corrupt-detected"], rep.Failures)
	if rep.Failures > 0 {
		return fmt.Errorf("crash matrix: %d cells violated the recovery contract", rep.Failures)
	}
	return nil
}
