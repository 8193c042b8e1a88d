package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// reportFile is what -out writes and -compare reads: one report per
// workload, so a whole suite fits in one file.
type reportFile struct {
	Workloads map[string]*report `json:"workloads"`
}

// report is one run of one workload.
type report struct {
	Workload       string                  `json:"workload"`
	Seed           uint64                  `json:"seed"`
	Input          string                  `json:"input"`
	Traced         bool                    `json:"traced"`
	Iterations     int                     `json:"iterations"`
	Correct        bool                    `json:"correct"`
	Attempted      int                     `json:"attempted"`
	Failed         int                     `json:"failed"`
	Problems       []string                `json:"problems,omitempty"`
	SimFingerprint string                  `json:"sim_fingerprint"`
	EndToEnd       map[string]metricReport `json:"end_to_end"`
	PerLayer       map[string]metricReport `json:"per_layer,omitempty"`
	Spans          []span                  `json:"spans,omitempty"`
}

// metricReport is one metric's value. Host numbers carry every timed
// iteration's sample and their quartiles; Value is the median.
type metricReport struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      *float64  `json:"q1,omitempty"`
	Q3      *float64  `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func buildReport(name string, seed uint64, input string, traced bool, out *outcome) *report {
	rep := &report{
		Workload: name, Seed: seed, Input: input, Traced: traced,
		Iterations: out.iterations,
		Correct:    out.failed == 0 && out.iterations > 0,
		Attempted:  out.attempted, Failed: out.failed, Problems: out.problems,
		SimFingerprint: fmt.Sprintf("%016x", out.fingerprint),
		EndToEnd:       map[string]metricReport{},
		Spans:          out.spans,
	}
	entry := func(d metricDef) metricReport {
		mr := metricReport{Value: out.metrics[d.name], Unit: d.unit}
		if vs := out.samples[d.name]; len(vs) > 0 {
			q1, _, q3 := quartiles(vs)
			mr.Q1, mr.Q3, mr.Samples = &q1, &q3, vs
		}
		return mr
	}
	for _, d := range endToEnd {
		if d.only == "" || d.only == name {
			rep.EndToEnd[d.name] = entry(d)
		}
	}
	if traced {
		rep.PerLayer = map[string]metricReport{}
		for _, d := range perLayer {
			rep.PerLayer[d.name] = entry(d)
		}
	}
	return rep
}

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	row := func(name string, m metricReport) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if m.Q1 != nil {
			fmt.Fprintf(w, " quartiles %.6g .. %.6g, n=%d", *m.Q1, *m.Q3, r.Iterations)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "end-to-end (untraced, %d timed iterations)\n", r.Iterations)
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.name]; ok {
			row(d.name, m)
		}
	}
	if r.Traced {
		fmt.Fprintln(w, "per-layer (traced iteration and probes)")
		for _, d := range perLayer {
			row(d.name, r.PerLayer[d.name])
		}
	}
	fmt.Fprintf(w, "simulated fingerprint %s\n", r.SimFingerprint)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
}

func readReportFile(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// addToFile puts rep into the report file at path, replacing an earlier
// report of the same workload and keeping the others.
func addToFile(path string, rep *report) error {
	f, err := readReportFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &reportFile{}, nil
	}
	if err != nil {
		return err
	}
	if f.Workloads == nil {
		f.Workloads = map[string]*report{}
	}
	f.Workloads[rep.Workload] = rep
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
