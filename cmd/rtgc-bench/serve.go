package main

// The serving subcommand: GC under live traffic. "serve" materialises a
// spec's trace, serves it under the naive-barrier and coalesced legs and
// emits the serving report, then prints the serving digest and each leg's
// run report. The spec is the recording: serving it again serves the same
// traffic, bit for bit.

import (
	"fmt"
	"os"

	"repligc/internal/workload"
)

//gclint:allow io -- reads the spec file, writes the report
func runServe(specPath, outPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := workload.ParseSpec(raw)
	if err != nil {
		return err
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	sec, err := workload.RunLegs(tr, workload.StandardLegs())
	if err != nil {
		return err
	}
	data, err := marshalReport(workload.BuildReport(sec))
	if err != nil {
		return err
	}
	if err := workload.ValidateReport(data); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	if err := writeReport(data, outPath); err != nil || outPath == "" {
		return err
	}
	fmt.Print(workload.FormatSection(sec))
	for _, l := range sec.Legs {
		fmt.Print(l.Stats.Text(sec.Spec + ", leg " + l.Name))
	}
	fmt.Printf("serving report written to %s\n", outPath)
	return nil
}
