// Command hostpairs digests the report files that scripts/host-pairs.sh
// collects: N alternating runs of the repository benchmark on a parent tree
// and on this one. For every metric it prints each side's median and
// quartiles over the runs, the pairs each side won, and whether the
// difference resolves by the rule every host claim must meet (benchmark
// README, "Repeatability"): nine tenths of the pairs won, ties counting for
// neither side, and medians further apart than the parent's own quartiles.
// It then folds each side's runs into one report file (a metric's samples
// are its per-run values), so `run.sh --compare parent.json change.json`
// can judge the bounds and the simulated side.
//
//	go run ./cmd/hostpairs -dir .bench_build/pairs/sort [-runs]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The subset of benchmarks/host's report schema (report.go) that the digest
// reads and `--compare` needs back.
type reportFile struct {
	Workloads map[string]*report `json:"workloads"`
}

type report struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Input          string            `json:"input"`
	Traced         bool              `json:"traced"`
	Iterations     int               `json:"iterations"`
	Correct        bool              `json:"correct"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	SimFingerprint string            `json:"sim_fingerprint"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	PerLayer       map[string]metric `json:"per_layer,omitempty"`
}

type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      *float64  `json:"q1,omitempty"`
	Q3      *float64  `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func main() {
	dir := flag.String("dir", "", "directory holding parent.<i>.json and change.<i>.json, i = 1..N")
	bench := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration: metric order, units and directions")
	runs := flag.Bool("runs", false, "also print every run's value of every host metric, in run order")
	flag.Parse()
	if *dir == "" || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := digest(os.Stdout, *dir, *bench, *runs); err != nil {
		fmt.Fprintf(os.Stderr, "hostpairs: %v\n", err)
		os.Exit(1)
	}
}

func digest(w io.Writer, dir, benchPath string, showRuns bool) error {
	defs, err := loadDefs(benchPath)
	if err != nil {
		return err
	}
	parent, err := loadRuns(dir, "parent")
	if err != nil {
		return err
	}
	change, err := loadRuns(dir, "change")
	if err != nil {
		return err
	}
	if len(parent) == 0 || len(parent) != len(change) {
		return fmt.Errorf("%s: %d parent and %d change reports, want the same non-zero number", dir, len(parent), len(change))
	}
	var names []string
	for name := range parent[0].Workloads { //gclint:allow maprange -- the names are sorted below
		names = append(names, name)
	}
	sort.Strings(names)

	mergedP, mergedC := &reportFile{Workloads: map[string]*report{}}, &reportFile{Workloads: map[string]*report{}}
	for _, name := range names {
		ps, cs, err := workloadRuns(parent, change, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s, seed %d: %d pairs, simulated fingerprint %s on every run of both sides\n\n", name, ps[0].Seed, len(ps), ps[0].SimFingerprint)
		fmt.Fprintln(w, "| metric | unit | parent | change | delta | change won | parent won | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
		var runRows []string
		for _, d := range defs {
			pv, cv := values(ps, d.Name), values(cs, d.Name)
			if pv == nil || cv == nil {
				continue
			}
			r := compare(d, pv, cv)
			fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %d/%d | %d/%d | %s |\n",
				d.Name, d.Unit, cell(r.p), cell(r.c), r.delta(), r.changeWon, len(pv), r.parentWon, len(pv), r.verdict())
			if !r.constant() {
				runRows = append(runRows,
					fmt.Sprintf("| `%s` | parent | %s |", d.Name, join(pv)),
					fmt.Sprintf("| `%s` | change | %s |", d.Name, join(cv)))
			}
		}
		if showRuns && len(runRows) > 0 {
			fmt.Fprintf(w, "\n| metric | side | %d runs, in order |\n|---|---|---|\n%s\n", len(ps), strings.Join(runRows, "\n"))
		}
		fmt.Fprintln(w)
		mergedP.Workloads[name], mergedC.Workloads[name] = merge(ps), merge(cs)
	}
	if err := writeJSON(filepath.Join(dir, "parent.json"), mergedP); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "change.json"), mergedC)
}

//gclint:allow io -- reads BENCHMARK.json
func loadDefs(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(b.EndToEnd, b.PerLayer...), nil
}

// loadRuns reads side.1.json, side.2.json, ... until one is missing.
//
//gclint:allow io -- reads the per-run report files host-pairs.sh collected
func loadRuns(dir, side string) ([]*reportFile, error) {
	var out []*reportFile
	for i := 1; ; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s.%d.json", side, i))
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		var f reportFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &f)
	}
}

// workloadRuns returns both sides' reports of one workload in run order. A
// failed run, or a simulated fingerprint that is not the same on every run
// of both sides, is an error: the host numbers would compare different work.
func workloadRuns(parent, change []*reportFile, name string) (ps, cs []*report, err error) {
	first := parent[0].Workloads[name]
	for i := range parent {
		p, c := parent[i].Workloads[name], change[i].Workloads[name]
		if p == nil || c == nil {
			return nil, nil, fmt.Errorf("pair %d: workload %s missing on one side", i+1, name)
		}
		for _, r := range []*report{p, c} {
			if !r.Correct || r.Failed != 0 {
				return nil, nil, fmt.Errorf("pair %d: a run of %s failed (%d of %d)", i+1, name, r.Failed, r.Attempted)
			}
			if r.Seed != first.Seed || r.SimFingerprint != first.SimFingerprint {
				return nil, nil, fmt.Errorf("pair %d: %s ran seed %d to fingerprint %s, the first parent run seed %d to %s",
					i+1, name, r.Seed, r.SimFingerprint, first.Seed, first.SimFingerprint)
			}
		}
		ps, cs = append(ps, p), append(cs, c)
	}
	return ps, cs, nil
}

// lookup finds a metric among a report's end-to-end and per-layer ones.
func (r *report) lookup(name string) (metric, bool) {
	if m, ok := r.EndToEnd[name]; ok {
		return m, true
	}
	m, ok := r.PerLayer[name]
	return m, ok
}

// values returns a metric's value in every run, or nil if a run lacks it.
func values(rs []*report, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		m, ok := r.lookup(name)
		if !ok {
			return nil
		}
		vs = append(vs, m.Value)
	}
	return vs
}

type quart struct{ q1, med, q3 float64 }

// result is one metric's comparison: each side's quartiles over the runs and
// the pairs each side won (a tie is won by neither).
type result struct {
	p, c                        quart
	changeWon, parentWon, pairs int
}

func compare(d metricDef, pv, cv []float64) result {
	r := result{p: quartiles(pv), c: quartiles(cv), pairs: len(pv)}
	for i := range pv {
		switch lower := cv[i] < pv[i]; {
		case cv[i] == pv[i]:
		case lower == (d.Better != "higher"):
			r.changeWon++
		default:
			r.parentWon++
		}
	}
	return r
}

func (r result) constant() bool { return r.p.q1 == r.p.q3 && r.c.q1 == r.c.q3 && r.p.med == r.c.med }

func (r result) delta() string {
	if r.p.med == 0 {
		return fmt.Sprintf("%+.4g", r.c.med-r.p.med)
	}
	return fmt.Sprintf("%+.1f %%", 100*(r.c.med-r.p.med)/r.p.med)
}

// verdict applies the claim rule in both directions: a side resolves as
// better when, over at least ten pairs, it won nine tenths of them and the
// medians lie further apart than the parent's interquartile distance.
func (r result) verdict() string {
	gap := r.c.med - r.p.med
	if gap < 0 {
		gap = -gap
	}
	apart := gap > r.p.q3-r.p.q1
	switch {
	case r.changeWon == 0 && r.parentWon == 0:
		return "equal on every pair"
	case r.pairs < 10:
		return "fewer than ten pairs"
	case 10*r.changeWon >= 9*r.pairs && apart:
		return "resolves: better"
	case 10*r.parentWon >= 9*r.pairs && apart:
		return "resolves: WORSE"
	default:
		return "not resolved"
	}
}

// quartiles uses the exclusive method, as benchmarks/host and the driver do.
func quartiles(vs []float64) quart {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return quart{s[0], s[0], s[0]}
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1) // position k(n+1)/4, 1-based, is j + delta/4
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quart{at(1), at(2), at(3)}
}

func cell(q quart) string {
	if q.q1 == q.q3 {
		return fmt.Sprintf("%.6g", q.med)
	}
	return fmt.Sprintf("%.6g [%.4g .. %.4g]", q.med, q.q1, q.q3)
}

func join(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.5g", v)
	}
	return strings.Join(parts, " ")
}

// merge folds one side's runs of a workload into a single report whose
// metrics carry the median and quartiles over the runs, with the per-run
// values as samples.
func merge(rs []*report) *report {
	out := *rs[0]
	out.Iterations = len(rs)
	fold := func(first map[string]metric) map[string]metric {
		if first == nil {
			return nil
		}
		m := map[string]metric{}
		for name, one := range first { //gclint:allow maprange -- fills a map: the order cannot matter
			if vs := values(rs, name); vs != nil {
				q := quartiles(vs)
				m[name] = metric{Value: q.med, Unit: one.Unit, Q1: &q.q1, Q3: &q.q3, Samples: vs}
			}
		}
		return m
	}
	out.EndToEnd, out.PerLayer = fold(rs[0].EndToEnd), fold(rs[0].PerLayer)
	return &out
}

//gclint:allow io -- writes each side's folded report file beside its runs
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
