package bench

import (
	"fmt"
	"strings"

	"repligc/internal/policy"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// Suite is the paper's evaluation as one memoised grid of runs. A cell is
// (workload, collector, params); it is executed at most once, and every
// table, figure and ablation in Experiments is a query over cells.
type Suite struct {
	Scale Scale
	// Executed counts the workload runs the grid has performed.
	Executed int
	grid     map[cellKey]cell
}

type cellKey struct {
	workload, collector string
	p                   Params
}

type cell struct {
	res    *Result
	script *policy.Script // what the rt cell recorded (§4.2); nil elsewhere
}

// NewSuite builds an experiment suite at the given workload scale.
func NewSuite(s Scale) *Suite {
	return &Suite{Scale: s, grid: make(map[cellKey]cell)}
}

// Workloads is the paper's benchmark list (§4.1) and the one name →
// constructor table, in the order the tables print.
var Workloads = []struct {
	Name string
	New  func(Scale) Workload
}{{"Primes", Primes}, {"Comp", Comp}, {"Sort", Sort}}

// WorkloadByName constructs one of Workloads at scale sc.
func WorkloadByName(name string, sc Scale) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w.New(sc), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// Cell returns the measurements of one grid cell, running it on first use.
// The rt cell records its policy script; every configuration whose minor
// collections are not incremental replays it, so that the runs the paper
// compares collect at the same points (§4.2).
func (s *Suite) Cell(name string, c rig.Collector, p Params) (*Result, error) {
	key := cellKey{name, c.Name, p}
	if got, ok := s.grid[key]; ok {
		return got.res, nil
	}
	w, err := WorkloadByName(name, s.Scale)
	if err != nil {
		return nil, err
	}
	rc := rig.Config{Collector: c, Params: p}
	switch {
	case c.Name == rig.RT.Name:
		rc.Record = &policy.Script{}
	case c.StopCopy || !c.Engine.IncrementalMinor:
		if _, err := s.Cell(name, rig.RT, p); err != nil {
			return nil, err
		}
		rc.Replay = s.grid[cellKey{name, rig.RT.Name, p}].script
	}
	res, err := Run(w, rc)
	if err != nil {
		return nil, err
	}
	s.Executed++
	s.grid[key] = cell{res, rc.Record}
	return res, nil
}

// gridRows builds one row per workload and parameter setting, in the order
// the tables print, from that setting's cells under each of cs.
func gridRows[R any](s *Suite, ps []Params, cs []rig.Collector, row func(name string, p Params, r []*Result) R) ([]R, error) {
	var rows []R
	for _, w := range Workloads {
		for _, p := range ps {
			r := make([]*Result, len(cs))
			for i, c := range cs {
				var err error
				if r[i], err = s.Cell(w.Name, c, p); err != nil {
					return nil, err
				}
			}
			rows = append(rows, row(w.Name, p, r))
		}
	}
	return rows, nil
}

// Table1Row is one row of the paper's pause-time table: the 50th and 99th
// percentile and maximum pause for stop-and-copy and real-time collection.
type Table1Row struct {
	Workload string
	P        Params
	SC, RT   [3]simtime.Duration // p50, p99, max
}

// Table1 reproduces "Table 1: Garbage Collection Pause Times (msec)".
func (s *Suite) Table1() ([]Table1Row, error) {
	return gridRows(s, PaperParams(), []rig.Collector{rig.SC, rig.RT}, func(name string, p Params, r []*Result) Table1Row {
		return Table1Row{Workload: name, P: p, SC: percentiles(r[0].Pauses), RT: percentiles(r[1].Pauses)}
	})
}

func percentiles(d *simtime.Digest) [3]simtime.Duration {
	return [3]simtime.Duration{d.Percentile(50), d.Percentile(99), d.Max()}
}

// PauseHistograms reproduces figures 5 and 6: the distribution of short
// (fig 5) and long (fig 6) pauses for the Comp benchmark at N=0.2 MB,
// O=1 MB under stop-and-copy and real-time collection.
func (s *Suite) PauseHistograms() (scShort, rtShort, scLong, rtLong *simtime.Histogram, err error) {
	sc, err := s.Cell("Comp", rig.SC, PaperParams()[0])
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rt, err := s.Cell("Comp", rig.RT, PaperParams()[0])
	if err != nil {
		return nil, nil, nil, nil, err
	}
	hist := func(res *Result, bin, lo, hi simtime.Duration) *simtime.Histogram {
		h := simtime.NewHistogram(bin, lo, hi)
		h.AddAll(res.Pauses.Durations())
		return h
	}
	const ms = simtime.Millisecond
	return hist(sc, 4*ms, 0, 100*ms), hist(rt, 4*ms, 0, 100*ms), hist(sc, 100*ms, 100*ms, 1000*ms), hist(rt, 100*ms, 100*ms, 1000*ms), nil
}

// Fig7Component is one slice of figure 7's execution-time decomposition.
type Fig7Component struct {
	Name    string
	Time    simtime.Duration
	Percent float64
}

// Fig7 reproduces "Figure 7: Components of Execution Time" for one
// workload under the real-time collector.
func (s *Suite) Fig7(name string, p Params) ([]Fig7Component, error) {
	rt, err := s.Cell(name, rig.RT, p)
	if err != nil {
		return nil, err
	}
	var out []Fig7Component
	for a := 0; a < simtime.NumAccounts; a++ {
		d := rt.Breakdown[a]
		out = append(out, Fig7Component{
			Name:    simtime.Account(a).String(),
			Time:    d,
			Percent: 100 * float64(d) / float64(rt.Elapsed),
		})
	}
	return out, nil
}

// OverheadCell is one point of figures 8-10: elapsed time for one
// configuration and its overhead relative to the plain stop-and-copy
// baseline.
type OverheadCell struct {
	Config   string // the collector's name in rig.Table
	Elapsed  simtime.Duration
	Overhead float64 // percent vs sc
}

// OverheadRow groups the five configurations for one parameter setting.
type OverheadRow struct {
	Workload string
	P        Params
	Cells    []OverheadCell
}

// Overheads reproduces the elapsed-time comparison of figures 8 (Primes),
// 9 (Comp) and 10 (Sort): the five collector configurations, policy-
// synchronized, at every parameter setting.
func (s *Suite) Overheads(name string) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, p := range PaperParams() {
		base, err := s.Cell(name, rig.SC, p)
		if err != nil {
			return nil, err
		}
		row := OverheadRow{Workload: name, P: p}
		for _, cfg := range AllPaperConfigs {
			res, err := s.Cell(name, cfg, p)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, OverheadCell{
				Config:   cfg.Name,
				Elapsed:  res.Elapsed,
				Overhead: 100 * (float64(res.Elapsed) - float64(base.Elapsed)) / float64(base.Elapsed),
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Row is one row of the paper's log-processing-cost table: CR is the
// cost of reapplying mutations to replicas, CF the cost of atomically
// re-pointing logged locations and roots at flips, each in seconds and as
// a percentage of real-time-collector elapsed time.
type Table2Row struct {
	Workload string
	P        Params
	CR       simtime.Duration
	CRPct    float64
	CF       simtime.Duration
	CFPct    float64
}

// Table2 reproduces "Table 2: Log processing costs".
func (s *Suite) Table2() ([]Table2Row, error) {
	return gridRows(s, PaperParams(), []rig.Collector{rig.RT}, func(name string, p Params, r []*Result) Table2Row {
		cr := r[0].Breakdown[simtime.AcctLogReapply]
		cf := r[0].Breakdown[simtime.AcctFlip]
		el := float64(r[0].Elapsed)
		return Table2Row{
			Workload: name, P: p,
			CR: cr, CRPct: 100 * float64(cr) / el,
			CF: cf, CFPct: 100 * float64(cf) / el,
		}
	})
}

// Table3Row is one row of the paper's latent-garbage table: G is the extra
// data copied by the incremental collector relative to a stop-and-copy
// collector with synchronized flips (data that died between being copied
// and the flip), %G its share of the stop-and-copy copy volume, and CG the
// estimated cost of copying it.
type Table3Row struct {
	Workload string
	P        Params
	GBytes   int64
	GPct     float64
	CG       simtime.Duration
	Flips    int // synchronized flips compared
}

// Table3 reproduces "Table 3: Latent garbage amounts" using the paper's
// method: flips are synchronized via the recorded policy script, and the
// copy volumes are compared at the last common flip.
func (s *Suite) Table3() ([]Table3Row, error) {
	cost := simtime.Default1993()
	perByte := float64(cost.CopyWord+cost.ScanWord) / float64(simtime.BytesPerWord)
	return gridRows(s, PaperParams(), []rig.Collector{rig.RT, rig.SC}, func(name string, p Params, r []*Result) Table3Row {
		rt, sc := r[0].GC.FlipCopied, r[1].GC.FlipCopied
		n := min(len(rt), len(sc))
		var g int64
		var scCopied int64 = 1
		if n > 0 {
			g = rt[n-1] - sc[n-1]
			scCopied = sc[n-1]
		}
		return Table3Row{
			Workload: name, P: p,
			GBytes: g,
			GPct:   100 * float64(g) / float64(scCopied),
			CG:     simtime.Duration(float64(g) * perByte),
			Flips:  n,
		}
	})
}

// Ablations are the rt-versus-variant comparisons the "ablations" experiment
// prints, in order.
var Ablations = []struct {
	Title   string
	Variant rig.Collector
}{
	// Eager log processing against the §2.5 opportunity of delaying
	// reapplication to the last possible moment.
	{"Ablation: lazy log processing (paper §2.5)", rig.RTLazy},
	// Eager copying against the §2.5 copy-order opportunity of replicating
	// mutable objects only at completion, when their contents are final and
	// their log entries need no reapplication.
	{"Ablation: deferred mutable copying (paper §2.5 copy order)", rig.RTDefer},
	// Pause-based collection against the interleaved (concurrent-style)
	// pacing of §6: the collector's work rides on allocation as a copying tax
	// and only flips stop the mutator for more than a work quantum.
	{"Ablation: interleaved concurrent-style pacing (paper §6)", rig.RTConc},
}

// AblationRow compares the real-time collector with one variant.
type AblationRow struct {
	Workload  string
	Base, Var *Result
}

// Ablation compares rt with one variant on every workload in the paper's
// 50 ms cell.
func (s *Suite) Ablation(variant rig.Collector) ([]AblationRow, error) {
	return gridRows(s, PaperParams()[:1], []rig.Collector{rig.RT, variant}, func(name string, _ Params, r []*Result) AblationRow {
		return AblationRow{Workload: name, Base: r[0], Var: r[1]}
	})
}

// LogPolicyRow measures the mutator cost of the compiler modifications
// (§4.5): plain stop-and-copy against stop-and-copy with full logging.
type LogPolicyRow struct {
	Workload    string
	SC, SCMods  *Result
	ExtraWrites int64
	OverheadPct float64
}

// AblationLogPolicy reproduces the §4.5 analysis in isolation.
func (s *Suite) AblationLogPolicy() ([]LogPolicyRow, error) {
	return gridRows(s, PaperParams()[:1], []rig.Collector{rig.SC, rig.SCMods}, func(name string, _ Params, r []*Result) LogPolicyRow {
		sc, mods := r[0], r[1]
		return LogPolicyRow{
			Workload:    name,
			SC:          sc,
			SCMods:      mods,
			ExtraWrites: mods.LogWrites - sc.LogWrites,
			OverheadPct: 100 * (float64(mods.Elapsed) - float64(sc.Elapsed)) / float64(sc.Elapsed),
		}
	})
}

// Experiment is one artifact of the paper's evaluation: an rtgc-bench
// subcommand and the query over the suite's grid that renders it (the text
// means nothing when the error is set).
type Experiment struct {
	Name string
	Also string // a second subcommand for the same text: figure 6 is drawn with figure 5
	Text func(*Suite) (string, error)
}

// Experiments lists every experiment in the order "rtgc-bench all" prints
// them; adding one is adding a row.
var Experiments = []Experiment{
	{Name: "table1", Text: func(s *Suite) (string, error) {
		rows, err := s.Table1()
		return FormatTable1(rows), err
	}},
	{Name: "fig5", Also: "fig6", Text: func(s *Suite) (string, error) {
		scShort, rtShort, scLong, rtLong, err := s.PauseHistograms()
		if err != nil {
			return "", err
		}
		return FormatHistograms(scShort, rtShort, scLong, rtLong), nil
	}},
	{Name: "fig7", Text: func(s *Suite) (string, error) {
		comps, err := s.Fig7("Comp", PaperParams()[0])
		return FormatFig7("Comp", comps), err
	}},
	{Name: "fig8", Text: overheadsText(8, "Primes")},
	{Name: "fig9", Text: overheadsText(9, "Comp")},
	{Name: "fig10", Text: overheadsText(10, "Sort")},
	{Name: "table2", Text: func(s *Suite) (string, error) {
		rows, err := s.Table2()
		return FormatTable2(rows), err
	}},
	{Name: "table3", Text: func(s *Suite) (string, error) {
		rows, err := s.Table3()
		return FormatTable3(rows), err
	}},
	{Name: "ablations", Text: func(s *Suite) (string, error) {
		var b strings.Builder
		for _, a := range Ablations {
			rows, err := s.Ablation(a.Variant)
			if err != nil {
				return "", err
			}
			b.WriteString(FormatAblation(a.Title, rows) + "\n")
		}
		rows, err := s.AblationLogPolicy()
		return b.String() + FormatLogPolicy(rows), err
	}},
}

func overheadsText(fig int, workload string) func(*Suite) (string, error) {
	return func(s *Suite) (string, error) {
		rows, err := s.Overheads(workload)
		return FormatOverheads(fig, rows), err
	}
}
