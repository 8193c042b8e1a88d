package main

// "validate FILE", and the one way a report leaves this command.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repligc/internal/bench"
	"repligc/internal/checkpoint"
	"repligc/internal/trace"
	"repligc/internal/workload"
)

// runValidate recognises every JSON document rtgc-bench and rtgc emit and
// runs that document's own shape-and-consistency check. The perf report and
// the standalone serving report share a schema string, so shape decides.
//
//gclint:allow io -- reads the document under validation
func runValidate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Schema      string          `json:"schema"`
		TraceEvents json.RawMessage `json:"traceEvents"`
		Workloads   json.RawMessage `json:"workloads"`
		Serving     json.RawMessage `json:"serving"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not a JSON object: %w", path, err)
	}
	var kind string
	switch {
	case doc.TraceEvents != nil:
		kind, err = "Chrome trace", trace.ValidateChrome(data)
	case strings.HasPrefix(doc.Schema, "repligc-crash-matrix/"):
		var rep checkpoint.MatrixReport
		if err = json.Unmarshal(data, &rep); err == nil {
			err = rep.Check()
		}
		kind = fmt.Sprintf("%s report (%d cases, %d failures)", checkpoint.MatrixSchema, len(rep.Cases), rep.Failures)
	case doc.Workloads != nil:
		kind, err = bench.PerfSchema+" report", bench.ValidatePerf(data)
	case doc.Serving != nil:
		kind, err = workload.ReportSchema+" serving report", workload.ValidateReport(data)
	default:
		return fmt.Errorf("%s: not a document this tool emits: schema %q, and no traceEvents, workloads or serving member", path, doc.Schema)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid %s\n", path, kind)
	return nil
}

// marshalReport renders doc the way every report is committed: indented,
// newline-terminated.
func marshalReport(doc any) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// writeReport sends a marshalled report to outPath, or to stdout when
// outPath is empty.
//
//gclint:allow io -- writes a report document to the requested path
func writeReport(data []byte, outPath string) error {
	if outPath == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}
