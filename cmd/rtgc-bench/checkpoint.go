package main

import (
	"fmt"
	"os"

	"repligc/internal/checkpoint"
	"repligc/internal/faultinject"
)

// runRecoverSmoke is the CI smoke for the recovery path: one seeded
// reference run with the checkpoint writer attached, recovered from its own
// artifacts and probed (audit + continuation + degradation ladder). It is
// the baseline-only row of the crash matrix.
func runRecoverSmoke() error {
	rep, err := checkpoint.RunCrashMatrix(checkpoint.MatrixConfig{
		Seeds:     []uint64{1},
		OpsPerRun: 3000,
	})
	if err != nil {
		return fmt.Errorf("recover smoke: %w", err)
	}
	for _, c := range rep.Cases {
		if c.Failed {
			return fmt.Errorf("recover smoke: seed %d %s: %s (%s)", c.Seed, c.Plan, c.Outcome, c.Err)
		}
	}
	fmt.Printf("recover smoke: %d epochs committed, %d cases, all recovered\n", rep.Epochs, len(rep.Cases))
	return nil
}

// runCrashMatrix executes the full deterministic crash-point matrix and
// writes the report (schema repligc-crash-matrix/1) to outPath, or stdout
// when empty. A contract violation in any cell is exit-status-failing.
func runCrashMatrix(outPath string) error {
	rep, err := checkpoint.RunCrashMatrix(checkpoint.MatrixConfig{
		Seeds:     []uint64{1, 2, 3},
		OpsPerRun: 4000,
		Plans:     faultinject.CrashPlans(0xc0ffee, 12),
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
	recovered, corrupt := 0, 0
	for _, c := range rep.Cases {
		switch c.Outcome {
		case "recovered":
			recovered++
		case "corrupt-detected":
			corrupt++
		}
	}
	fmt.Fprintf(os.Stderr, "crash matrix: %d cases (%d recovered, %d corruption-rejected), %d failures\n",
		len(rep.Cases), recovered, corrupt, rep.Failures)
	if rep.Failures > 0 {
		return fmt.Errorf("crash matrix: %d cells violated the recovery contract", rep.Failures)
	}
	return nil
}
