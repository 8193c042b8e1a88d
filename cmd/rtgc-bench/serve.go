package main

// The serving subcommands: GC under live traffic.
//
//	rtgc-bench [-out FILE] [-record FILE] serve SPECFILE
//	rtgc-bench [-out FILE] servereplay TRACEFILE
//
// "serve" parses a workload spec, materialises its trace, serves it under
// the naive-barrier and coalesced legs, and emits the schema-5 serving
// report; -record additionally writes the materialised trace artifact.
// "servereplay" decodes a recorded trace artifact (fingerprint-verified)
// and serves it — the same traffic, bit for bit.

import (
	"fmt"
	"os"

	"repligc/internal/workload"
)

//gclint:io reads the spec file, writes the report and optional trace artifact
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
	sec, err := workload.RunLegs(tr, workload.StandardLegs())
	if err != nil {
		return err
	}
	return emitServing(sec, outPath)
}

//gclint:io reads the trace artifact, writes the report
func runServeReplay(tracePath, outPath string) error {
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	tr, err := workload.DecodeTrace(raw)
	if err != nil {
		return err
	}
	sec, err := workload.RunLegs(tr, workload.StandardLegs())
	if err != nil {
		return err
	}
	return emitServing(sec, outPath)
}

func emitServing(sec *workload.Section, outPath string) error {
	data, err := marshalReport(workload.BuildReport(sec))
	if err != nil {
		return err
	}
	if err := writeReport(data, outPath); err != nil || outPath == "" {
		return err
	}
	fmt.Print(workload.FormatSection(sec))
	fmt.Printf("serving report written to %s\n", outPath)
	return nil
}
