// Command hostpairs digests the report files that scripts/host-pairs.sh
// collects: N alternating runs of the repository benchmark on a parent tree
// and on this one. For every metric it prints each side's median and
// quartiles over the runs, the pairs each side won, and two verdicts.
//
// The claim rule says whether the difference resolves as every host claim
// must (benchmark README, "Repeatability"): nine tenths of the pairs won,
// ties counting for neither side, and medians further apart than the
// parent's own quartiles. The bound rule, for the end-to-end metrics, says
// whether the change kept within the metric's bound in BENCHMARK.json: a
// median worse by more than the bound is over it; otherwise a parent spread
// (its interquartile distance over its median) wider than the bound leaves
// it unresolved, unless every change run beats every parent run.
//
// It exits 1 when an end-to-end metric is over its bound, or when the runs
// cannot be compared: a run failed, or the two sides did different
// simulated work. A metric that resolves worse within its bound, or that is
// unresolved, is no failure.
//
// A change that means to move the simulation names each workload it moves
// with -sim-change W=PFP:CFP (a comma-separated list): every parent run of W
// must then show fingerprint PFP and every change run CFP, and the table's
// sim_ rows give the simulated deltas. A fingerprint the flag does not name
// is still the error above.
//
//	go run ./cmd/hostpairs -dir .bench_build/pairs/sort [-runs] [-sim-change sort=d7f6:21ed]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"` // end-to-end only: the largest worsening allowed, a share of the parent's median
	endToEnd bool
}

// The subset of benchmarks/host's report schema (report.go) that the digest
// reads.
type reportFile struct {
	Workloads map[string]*report `json:"workloads"`
}

type report struct {
	Seed           uint64            `json:"seed"`
	Correct        bool              `json:"correct"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	SimFingerprint string            `json:"sim_fingerprint"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	PerLayer       map[string]metric `json:"per_layer,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
}

func main() {
	dir := flag.String("dir", "", "directory holding parent.<i>.json and change.<i>.json, i = 1..N")
	bench := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration: metric order, units, directions and bounds")
	runs := flag.Bool("runs", false, "also print every run's value of every host metric, in run order")
	simChange := flag.String("sim-change", "", "workloads whose simulation the change moves on purpose: W=PARENT_FP:CHANGE_FP, comma-separated")
	flag.Parse()
	moves, err := parseSimChange(*simChange)
	if *dir == "" || flag.NArg() != 0 || err != nil {
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostpairs: %v\n", err)
		}
		flag.Usage()
		os.Exit(2)
	}
	if err := digest(os.Stdout, *dir, *bench, *runs, moves); err != nil {
		fmt.Fprintf(os.Stderr, "hostpairs: %v\n", err)
		os.Exit(1)
	}
}

// simMove is a named simulated change: the fingerprint every parent run and
// every change run of one workload must show.
type simMove struct{ parent, change string }

// parseSimChange reads -sim-change's list, W=PFP:CFP[,W=PFP:CFP...].
func parseSimChange(s string) (map[string]simMove, error) {
	moves := map[string]simMove{}
	if s == "" {
		return moves, nil
	}
	for _, item := range strings.Split(s, ",") {
		name, fps, ok := strings.Cut(item, "=")
		p, c, ok2 := strings.Cut(fps, ":")
		if !ok || !ok2 || name == "" || p == "" || c == "" {
			return nil, fmt.Errorf("-sim-change: %q is not W=PARENT_FP:CHANGE_FP", item)
		}
		if _, dup := moves[name]; dup {
			return nil, fmt.Errorf("-sim-change: %s named twice", name)
		}
		moves[name] = simMove{p, c}
	}
	return moves, nil
}

// digest prints the tables; its error names the end-to-end metrics over
// their bounds, if any. moves names the workloads whose simulated work the
// change moves on purpose.
func digest(w io.Writer, dir, benchPath string, showRuns bool, moves map[string]simMove) error {
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

	var over []string
	for _, name := range names {
		move, moved := moves[name]
		ps, cs, err := workloadRuns(parent, change, name, move)
		if err != nil {
			return err
		}
		if moved {
			fmt.Fprintf(w, "%s, seed %d: %d pairs, simulated fingerprint %s on every parent run and %s on every change run (a named simulated change)\n\n",
				name, ps[0].Seed, len(ps), move.parent, move.change)
		} else {
			fmt.Fprintf(w, "%s, seed %d: %d pairs, simulated fingerprint %s on every run of both sides\n\n", name, ps[0].Seed, len(ps), ps[0].SimFingerprint)
		}
		fmt.Fprintln(w, "| metric | unit | parent | change | delta | change won | parent won | claim rule | bound | bound rule |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
		var runRows []string
		for _, d := range defs {
			pv, cv := values(ps, d.Name), values(cs, d.Name)
			if pv == nil || cv == nil {
				continue
			}
			r := compare(d, pv, cv)
			bound, judged := "", ""
			if d.endToEnd {
				bound, judged = fmt.Sprintf("%.4g %%", 100*d.Bound), r.judge(d)
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %d/%d | %d/%d | %s | %s | %s |\n",
				d.Name, d.Unit, cell(r.p), cell(r.c), r.delta(), r.changeWon, len(pv), r.parentWon, len(pv), r.verdict(), bound, judged)
			if judged == verdictOverBound {
				over = append(over, name+" "+d.Name)
			}
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
	}
	if len(over) > 0 {
		return fmt.Errorf("end-to-end metrics over their bounds: %s", strings.Join(over, ", "))
	}
	return nil
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
	for i := range b.EndToEnd {
		b.EndToEnd[i].endToEnd = true
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
// A named move (a non-zero simMove) instead wants its parent fingerprint on
// every parent run and its change fingerprint on every change run.
func workloadRuns(parent, change []*reportFile, name string, move simMove) (ps, cs []*report, err error) {
	first := parent[0].Workloads[name]
	if first == nil {
		return nil, nil, fmt.Errorf("pair 1: workload %s missing on one side", name)
	}
	want := simMove{first.SimFingerprint, first.SimFingerprint}
	if move != (simMove{}) {
		want = move
	}
	for i := range parent {
		p, c := parent[i].Workloads[name], change[i].Workloads[name]
		if p == nil || c == nil {
			return nil, nil, fmt.Errorf("pair %d: workload %s missing on one side", i+1, name)
		}
		for _, r := range []struct {
			side, fp string
			*report
		}{{"parent", want.parent, p}, {"change", want.change, c}} {
			if !r.Correct || r.Failed != 0 {
				return nil, nil, fmt.Errorf("pair %d: a run of %s failed (%d of %d)", i+1, name, r.Failed, r.Attempted)
			}
			if r.Seed != first.Seed || r.SimFingerprint != r.fp {
				return nil, nil, fmt.Errorf("pair %d: the %s run of %s ran seed %d to fingerprint %s, want seed %d to %s",
					i+1, r.side, name, r.Seed, r.SimFingerprint, first.Seed, r.fp)
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

// result is one metric's comparison: each side's quartiles over the runs,
// the pairs each side won (a tie is won by neither) and whether every change
// run beats every parent run.
type result struct {
	p, c                        quart
	changeWon, parentWon, pairs int
	allBeat                     bool
}

// beats reports whether value a is better than b in d's direction.
func (d metricDef) beats(a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

func compare(d metricDef, pv, cv []float64) result {
	r := result{p: quartiles(pv), c: quartiles(cv), pairs: len(pv), allBeat: true}
	for i := range pv {
		switch {
		case d.beats(cv[i], pv[i]):
			r.changeWon++
		case d.beats(pv[i], cv[i]):
			r.parentWon++
		}
	}
	for _, c := range cv {
		for _, p := range pv {
			r.allBeat = r.allBeat && d.beats(c, p)
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

const verdictOverBound = "over bound"

// judge applies the no-regression rule against d's bound, a share of the
// parent's median: a change median worse by more than that is over the
// bound; otherwise every change run beating every parent run is better, and
// a parent interquartile distance wider than that leaves the runs unable to
// tell.
func (r result) judge(d metricDef) string {
	allowed := d.Bound * math.Abs(r.p.med)
	switch {
	case d.beats(r.p.med, r.c.med) && math.Abs(r.c.med-r.p.med) > allowed:
		return verdictOverBound
	case r.allBeat:
		return "better"
	case r.p.q3-r.p.q1 > allowed:
		return "unresolved"
	default:
		return "within bound"
	}
}

// verdict applies the claim rule in both directions: a side resolves as
// better when, over at least ten pairs, it won nine tenths of them and the
// medians lie further apart than the parent's interquartile distance.
func (r result) verdict() string {
	apart := math.Abs(r.c.med-r.p.med) > r.p.q3-r.p.q1
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
