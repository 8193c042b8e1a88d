package main

// The serving subcommands: GC under live traffic. "serve" materialises a
// spec's trace, "servereplay" decodes a recorded one (fingerprint-verified);
// both serve it under the standard legs — the same traffic, bit for bit.

import (
	"fmt"
	"os"

	"repligc/internal/workload"
)

//gclint:allow io -- reads the spec file, writes the report and optional trace artifact
func runServe(specPath, outPath, recordPath string) error {
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
	if recordPath != "" {
		enc, err := workload.EncodeTrace(tr)
		if err != nil {
			return err
		}
		if err := os.WriteFile(recordPath, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rtgc-bench: recorded %d requests (%d bytes) to %s\n",
			len(tr.Reqs), len(enc), recordPath)
	}
	return serveTrace(tr, outPath)
}

//gclint:allow io -- reads the trace artifact, writes the report
func runServeReplay(tracePath, outPath string) error {
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	tr, err := workload.DecodeTrace(raw)
	if err != nil {
		return err
	}
	return serveTrace(tr, outPath)
}

// serveTrace serves tr under the naive-barrier and coalesced legs and emits
// the serving report, then prints the serving digest and each leg's run
// report.
func serveTrace(tr *workload.Trace, outPath string) error {
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
