package main

// The calibrate subcommand: runs the wall-clock calibration harness
// (internal/calib) and writes the repligc-calib/1 artifact. All timing
// happens inside internal/calib behind its //gclint:wallclock boundary;
// this file is export glue.

import (
	"fmt"

	"repligc/internal/bench"
	"repligc/internal/calib"
)

// runCalibrate executes the calibration suite and writes the artifact to
// outPath ("" = stdout).
func runCalibrate(quick bool, outPath string) error {
	cfg := calib.Config{Scale: bench.DefaultScale(), ScaleName: "default"}
	if quick {
		// CI smoke sizing: small workloads, small arenas, fewer probe
		// iterations — enough to validate the artifact end to end without
		// occupying the job.
		cfg = calib.Config{
			Scale:        bench.QuickScale(),
			ScaleName:    "quick",
			Reps:         2,
			ProbeOps:     20000,
			OldSemiBytes: 16 << 20,
		}
	}
	rep, err := calib.Run(cfg)
	if err != nil {
		return err
	}
	if err := calib.Validate(rep); err != nil {
		return fmt.Errorf("generated calibration artifact failed validation: %w", err)
	}
	data, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if err := writeReport(data, outPath); err != nil || outPath == "" {
		return err
	}
	fmt.Printf("wrote %s (%d rows, fit MAPE %.1f%%, r=%.3f, fitted copy %.0f MB/s, replay %.0f MB/s)\n",
		outPath, len(rep.Rows), rep.Fit.MAPEPct, rep.Fit.Pearson,
		rep.FittedCopyRateBytesPerSec/(1<<20), rep.FittedReplayRateBytesPerSec/(1<<20))
	return nil
}
