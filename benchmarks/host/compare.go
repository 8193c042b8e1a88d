package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Verdicts of one end-to-end metric on one workload, baseline against
// change.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the change's metric b with the baseline's a under d's
// direction and bound. A metric past its bound is worse; when the two sides'
// quartile ranges overlap, or either side's spread is wider than the bound,
// the runs cannot tell and it is unresolved instead.
func judge(d metricDef, a, b metricReport) string {
	worse := b.Value - a.Value // positive when the change is worse
	if d.better == "higher" {
		worse = -worse
	}
	share := 0.0
	switch {
	case a.Value != 0:
		share = worse / math.Abs(a.Value)
	case worse != 0:
		share = math.Copysign(1, worse) // from zero, any movement is a whole one
	}
	lo := func(m metricReport) float64 {
		if m.Q1 != nil {
			return *m.Q1
		}
		return m.Value
	}
	hi := func(m metricReport) float64 {
		if m.Q3 != nil {
			return *m.Q3
		}
		return m.Value
	}
	overlap := lo(a) <= hi(b) && lo(b) <= hi(a)
	spread := func(m metricReport) float64 { return ratio(hi(m)-lo(m), math.Abs(m.Value)) }
	noisy := spread(a) > d.bound || spread(b) > d.bound

	switch {
	case share > d.bound && overlap:
		return verdictUnresolved
	case share > d.bound:
		return verdictWorse
	case noisy:
		return verdictUnresolved
	case share < 0 && !overlap:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// compareFiles prints, per workload, each end-to-end metric in its own row
// with both sides' medians and quartiles, the bound and a verdict, then one
// line saying whether the simulated side is bit-identical. It reports
// whether nothing was worse or unresolved and the simulated side identical:
// what two runs of the same tree must show.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := readReportFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readReportFile(pathB)
	if err != nil {
		return false, err
	}
	cell := func(m metricReport) string {
		if m.Q1 == nil {
			return fmt.Sprintf("%.6g", m.Value)
		}
		return fmt.Sprintf("%.6g [%.4g, %.4g]", m.Value, *m.Q1, *m.Q3)
	}

	clean, compared := true, 0
	var simDiffs []string
	for _, name := range workloadNames {
		a, b := fa.Workloads[name], fb.Workloads[name]
		if a == nil || b == nil {
			continue
		}
		compared++
		fmt.Fprintf(w, "%s (seed %d, %d and %d iterations)\n", name, a.Seed, a.Iterations, b.Iterations)
		if a.Seed != b.Seed {
			simDiffs = append(simDiffs, name+": seeds differ, the runs had different inputs")
		} else if a.SimFingerprint != b.SimFingerprint {
			simDiffs = append(simDiffs, name+": simulated fingerprint (elapsed, pause list, output)")
		}
		for _, d := range endToEnd {
			ma, ok := a.EndToEnd[d.name]
			mb, ok2 := b.EndToEnd[d.name]
			if !ok || !ok2 {
				continue
			}
			v := judge(d, ma, mb)
			if v == verdictWorse || v == verdictUnresolved {
				clean = false
			}
			fmt.Fprintf(w, "  %-20s %-34s %-34s bound %4.1f%%  %s\n", d.name, cell(ma), cell(mb), 100*d.bound, v)
			if strings.HasPrefix(d.name, "sim_") && ma.Value != mb.Value {
				simDiffs = append(simDiffs, fmt.Sprintf("%s: %s %v vs %v", name, d.name, ma.Value, mb.Value))
			}
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s have no workload in common", pathA, pathB)
	}
	if len(simDiffs) == 0 {
		fmt.Fprintln(w, "simulated side bit-identical: yes (every sim_ metric and every workload's fingerprint)")
	} else {
		fmt.Fprintln(w, "simulated side bit-identical: NO")
		for _, s := range simDiffs {
			fmt.Fprintln(w, "  "+s)
		}
	}
	return clean && len(simDiffs) == 0, nil
}
