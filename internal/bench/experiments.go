package bench

import (
	"fmt"

	"repligc/internal/policy"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// Suite runs the paper's experiments, caching the recorded real-time runs
// that several experiments share (the rt run both produces measurements and
// records the policy script that synchronized replays consume).
type Suite struct {
	Scale Scale
	cache map[string]*recordedRun
}

type recordedRun struct {
	res    *Result
	script *policy.Script
}

// NewSuite builds an experiment suite at the given workload scale.
func NewSuite(s Scale) *Suite {
	return &Suite{Scale: s, cache: make(map[string]*recordedRun)}
}

// WorkloadByName constructs a workload.
func (s *Suite) WorkloadByName(name string) (Workload, error) {
	switch name {
	case "Primes":
		return Primes(s.Scale), nil
	case "Comp":
		return Comp(s.Scale), nil
	case "Sort":
		return Sort(s.Scale), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// AllWorkloads is the paper's benchmark list.
var AllWorkloads = []string{"Primes", "Comp", "Sort"}

// rt returns the cached recorded real-time run for (workload, params).
func (s *Suite) rt(name string, p Params) (*recordedRun, error) {
	key := fmt.Sprintf("%s/%v", name, p)
	if r, ok := s.cache[key]; ok {
		return r, nil
	}
	w, err := s.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	res, script, err := RecordedRT(w, p)
	if err != nil {
		return nil, err
	}
	r := &recordedRun{res: res, script: script}
	s.cache[key] = r
	return r, nil
}

// run executes one non-recording configuration, replaying the rt script for
// the configurations whose minor collections are not incremental.
func (s *Suite) run(name string, cfg rig.Collector, p Params) (*Result, error) {
	w, err := s.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	rc := rig.Config{Collector: cfg, Params: p}
	switch {
	case cfg == rig.RT:
		rt, err := s.rt(name, p)
		if err != nil {
			return nil, err
		}
		return rt.res, nil
	case cfg.StopCopy || !cfg.Engine.IncrementalMinor:
		rt, err := s.rt(name, p)
		if err != nil {
			return nil, err
		}
		rc.Replay = rt.script
	}
	return Run(w, rc)
}

// ------------------------------------------------------------- Table 1

// Table1Row is one row of the paper's pause-time table: the 50th and 99th
// percentile and maximum pause for stop-and-copy and real-time collection.
type Table1Row struct {
	Workload string
	P        Params
	SC, RT   [3]simtime.Duration // p50, p99, max
}

// Table1 reproduces "Table 1: Garbage Collection Pause Times (msec)".
func (s *Suite) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range AllWorkloads {
		for _, p := range PaperParams() {
			sc, err := s.run(name, rig.SC, p)
			if err != nil {
				return nil, err
			}
			rt, err := s.run(name, rig.RT, p)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table1Row{
				Workload: name,
				P:        p,
				SC:       percentiles(&sc.Pauses),
				RT:       percentiles(&rt.Pauses),
			})
		}
	}
	return rows, nil
}

func percentiles(r *simtime.Recorder) [3]simtime.Duration {
	return [3]simtime.Duration{r.Percentile(50), r.Percentile(99), r.Max()}
}

// ------------------------------------------------------- Figures 5 and 6

// PauseHistograms reproduces figures 5 and 6: the distribution of short
// (fig 5) and long (fig 6) pauses for the Comp benchmark at N=0.2 MB,
// O=1 MB under stop-and-copy and real-time collection.
func (s *Suite) PauseHistograms() (scShort, rtShort, scLong, rtLong *simtime.Histogram, err error) {
	p := PaperParams()[0] // O=1MB, N=0.2MB
	sc, err := s.run("Comp", rig.SC, p)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rt, err := s.run("Comp", rig.RT, p)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	scShort = simtime.NewHistogram(4*simtime.Millisecond, 0, 100*simtime.Millisecond)
	rtShort = simtime.NewHistogram(4*simtime.Millisecond, 0, 100*simtime.Millisecond)
	scLong = simtime.NewHistogram(100*simtime.Millisecond, 100*simtime.Millisecond, simtime.Second)
	rtLong = simtime.NewHistogram(100*simtime.Millisecond, 100*simtime.Millisecond, simtime.Second)
	scShort.AddAll(sc.Pauses.Durations())
	rtShort.AddAll(rt.Pauses.Durations())
	scLong.AddAll(sc.Pauses.Durations())
	rtLong.AddAll(rt.Pauses.Durations())
	return scShort, rtShort, scLong, rtLong, nil
}

// ------------------------------------------------------------- Figure 7

// Fig7Component is one slice of figure 7's execution-time decomposition.
type Fig7Component struct {
	Name    string
	Time    simtime.Duration
	Percent float64
}

// Fig7 reproduces "Figure 7: Components of Execution Time" for one
// workload under the real-time collector.
func (s *Suite) Fig7(name string, p Params) ([]Fig7Component, error) {
	rt, err := s.rt(name, p)
	if err != nil {
		return nil, err
	}
	total := rt.res.Elapsed
	var out []Fig7Component
	for a := 0; a < simtime.NumAccounts; a++ {
		d := rt.res.Breakdown[a]
		out = append(out, Fig7Component{
			Name:    simtime.Account(a).String(),
			Time:    d,
			Percent: 100 * float64(d) / float64(total),
		})
	}
	return out, nil
}

// ---------------------------------------------------- Figures 8, 9, 10

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
		base, err := s.run(name, rig.SC, p)
		if err != nil {
			return nil, err
		}
		row := OverheadRow{Workload: name, P: p}
		for _, cfg := range AllPaperConfigs {
			var res *Result
			if cfg == rig.SC {
				res = base
			} else {
				res, err = s.run(name, cfg, p)
				if err != nil {
					return nil, err
				}
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

// ------------------------------------------------------------- Table 2

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
	var rows []Table2Row
	for _, name := range AllWorkloads {
		for _, p := range PaperParams() {
			rt, err := s.rt(name, p)
			if err != nil {
				return nil, err
			}
			cr := rt.res.Breakdown[simtime.AcctLogReapply]
			cf := rt.res.Breakdown[simtime.AcctFlip]
			el := float64(rt.res.Elapsed)
			rows = append(rows, Table2Row{
				Workload: name, P: p,
				CR: cr, CRPct: 100 * float64(cr) / el,
				CF: cf, CFPct: 100 * float64(cf) / el,
			})
		}
	}
	return rows, nil
}

// ------------------------------------------------------------- Table 3

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
	var rows []Table3Row
	for _, name := range AllWorkloads {
		for _, p := range PaperParams() {
			rt, err := s.rt(name, p)
			if err != nil {
				return nil, err
			}
			sc, err := s.run(name, rig.SC, p)
			if err != nil {
				return nil, err
			}
			n := len(rt.res.Stats.FlipCopied)
			if len(sc.Stats.FlipCopied) < n {
				n = len(sc.Stats.FlipCopied)
			}
			var g int64
			var scCopied int64 = 1
			if n > 0 {
				g = rt.res.Stats.FlipCopied[n-1] - sc.Stats.FlipCopied[n-1]
				scCopied = sc.Stats.FlipCopied[n-1]
			}
			rows = append(rows, Table3Row{
				Workload: name, P: p,
				GBytes: g,
				GPct:   100 * float64(g) / float64(scCopied),
				CG:     simtime.Duration(float64(g) * perByte),
				Flips:  n,
			})
		}
	}
	return rows, nil
}

// ------------------------------------------------------------ Ablations

// AblationRow compares the real-time collector with one variant.
type AblationRow struct {
	Workload  string
	Base, Var *Result
}

// AblationLazy compares eager log processing against the paper §2.5
// opportunity of delaying reapplication to the last possible moment.
func (s *Suite) AblationLazy() ([]AblationRow, error) {
	return s.ablation(rig.RTLazy)
}

// AblationBoundedLog compares the paper's unbounded log processing against
// the incremental log processing extension suggested in §3.4.
func (s *Suite) AblationBoundedLog() ([]AblationRow, error) {
	return s.ablation(rig.RTBounded)
}

// AblationDeferMutables compares eager copying against the §2.5 copy-order
// opportunity of replicating mutable objects only at completion, when their
// contents are final and their log entries need no reapplication.
func (s *Suite) AblationDeferMutables() ([]AblationRow, error) {
	return s.ablation(rig.RTDefer)
}

// AblationConcurrent compares pause-based real-time collection against the
// interleaved (concurrent-style) pacing of the paper's §6, in which the
// collector's work rides on allocation as a copying tax and only flips
// stop the mutator for more than a work quantum.
func (s *Suite) AblationConcurrent() ([]AblationRow, error) {
	return s.ablation(rig.RTConc)
}

func (s *Suite) ablation(variant rig.Collector) ([]AblationRow, error) {
	p := PaperParams()[0]
	var rows []AblationRow
	for _, name := range AllWorkloads {
		base, err := s.rt(name, p)
		if err != nil {
			return nil, err
		}
		w, err := s.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		res, err := Run(w, rig.Config{Collector: variant, Params: p})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Workload: name, Base: base.res, Var: res})
	}
	return rows, nil
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
	p := PaperParams()[0]
	var rows []LogPolicyRow
	for _, name := range AllWorkloads {
		sc, err := s.run(name, rig.SC, p)
		if err != nil {
			return nil, err
		}
		mods, err := s.run(name, rig.SCMods, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LogPolicyRow{
			Workload:    name,
			SC:          sc,
			SCMods:      mods,
			ExtraWrites: mods.LogWrites - sc.LogWrites,
			OverheadPct: 100 * (float64(mods.Elapsed) - float64(sc.Elapsed)) / float64(sc.Elapsed),
		})
	}
	return rows, nil
}
