package bench

import (
	"fmt"
	"strings"

	"repligc/internal/simtime"
)

func ms(d simtime.Duration) string { return fmt.Sprintf("%.0f", d.Milliseconds()) }

// rowPrefix is the left edge every row of tables 1-3 shares: the benchmark's
// name on the first of its rows only (*last tracks it), then O and N in MB.
func rowPrefix(last *string, name string, p Params) string {
	shown := name
	if name == *last {
		shown = ""
	}
	*last = name
	return fmt.Sprintf("%-7s %-5.1f %-5.1f |", shown, float64(p.OBytes)/(1<<20), float64(p.NBytes)/(1<<20))
}

// FormatTable1 renders table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Garbage Collection Pause Times (simulated msec)\n")
	fmt.Fprintf(&b, "%-7s %-5s %-5s | %6s %6s %6s | %6s %6s %6s\n",
		"", "O", "N", "S+C", "", "", "RT", "", "")
	fmt.Fprintf(&b, "%-7s %-5s %-5s | %6s %6s %6s | %6s %6s %6s\n",
		"bench", "(MB)", "(MB)", "50%", "99%", "Max", "50%", "99%", "Max")
	last := ""
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %6s %6s %6s | %6s %6s %6s\n", rowPrefix(&last, r.Workload, r.P),
			ms(r.SC[0]), ms(r.SC[1]), ms(r.SC[2]),
			ms(r.RT[0]), ms(r.RT[1]), ms(r.RT[2]))
	}
	return b.String()
}

// FormatHistograms renders figures 5 and 6.
func FormatHistograms(scShort, rtShort, scLong, rtLong *simtime.Histogram) string {
	var b strings.Builder
	b.WriteString("Figure 5: Short GC Pauses during Comp Benchmark (N=0.2MB, O=1MB)\n\n")
	b.WriteString(scShort.Render("  Stop and Copy (S+C)"))
	b.WriteString("\n")
	b.WriteString(rtShort.Render("  Real-Time (RT)"))
	b.WriteString("\nFigure 6: Long GC Pauses during Comp Benchmark (N=0.2MB, O=1MB)\n\n")
	b.WriteString(scLong.Render("  Stop and Copy (S+C)"))
	b.WriteString("\n")
	b.WriteString(rtLong.Render("  Real-Time (RT)"))
	return b.String()
}

// FormatFig7 renders figure 7's breakdown.
func FormatFig7(name string, comps []Fig7Component) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Components of Execution Time (%s, real-time collector)\n", name)
	for _, c := range comps {
		if c.Time == 0 {
			continue
		}
		bar := strings.Repeat("#", int(c.Percent/2))
		fmt.Fprintf(&b, "  %-13s %8s %6.2f%% %s\n", c.Name, c.Time, c.Percent, bar)
	}
	return b.String()
}

// FormatOverheads renders one of figures 8-10.
func FormatOverheads(fig int, rows []OverheadRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Figure %d: %s Benchmark: Elapsed Times (policy-synchronized)\n", fig, rows[0].Workload)
	fmt.Fprintf(&b, "%-16s", "config \\ params")
	for _, r := range rows {
		fmt.Fprintf(&b, " | %18s", r.P)
	}
	b.WriteString("\n")
	for i := range rows[0].Cells {
		fmt.Fprintf(&b, "%-16s", rows[0].Cells[i].Config)
		for _, r := range rows {
			c := r.Cells[i]
			fmt.Fprintf(&b, " | %9s %+7.1f%%", c.Elapsed, c.Overhead)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable2 renders table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Log processing costs\n")
	fmt.Fprintf(&b, "%-7s %-5s %-5s | %9s %6s | %9s %6s\n",
		"bench", "O(MB)", "N(MB)", "CR", "%CR", "CF", "%CF")
	last := ""
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %9s %5.2f%% | %9s %5.2f%%\n", rowPrefix(&last, r.Workload, r.P),
			r.CR, r.CRPct, r.CF, r.CFPct)
	}
	return b.String()
}

// FormatTable3 renders table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Latent garbage amounts (flip-synchronized)\n")
	fmt.Fprintf(&b, "%-7s %-5s %-5s | %9s %6s %9s %6s\n",
		"bench", "O(MB)", "N(MB)", "G (KB)", "%G", "CG", "flips")
	last := ""
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %9.0f %5.1f%% %9s %6d\n", rowPrefix(&last, r.Workload, r.P),
			float64(r.GBytes)/1024, r.GPct, r.CG, r.Flips)
	}
	return b.String()
}

// FormatAblation renders an rt-vs-variant comparison.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-7s | %10s %10s | %10s %10s | %9s %9s | %8s %8s\n",
		"bench", "rt elapsed", "variant", "rt max", "var max", "rt reappl", "var reappl", "rt pause", "var pause")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s | %10s %10s | %10s %10s | %9d %9d | %8d %8d\n",
			r.Workload,
			r.Base.Elapsed, r.Var.Elapsed,
			r.Base.Pauses.Max(), r.Var.Pauses.Max(),
			r.Base.GC.LogReapplied, r.Var.GC.LogReapplied,
			r.Base.GC.PauseCount, r.Var.GC.PauseCount)
	}
	return b.String()
}

// FormatLogPolicy renders the §4.5 compiler-modification cost analysis.
func FormatLogPolicy(rows []LogPolicyRow) string {
	var b strings.Builder
	b.WriteString("Compiler-modification (logging) cost: stop-and-copy vs stop-and-copy w/ mods\n")
	fmt.Fprintf(&b, "%-7s | %10s %10s | %12s | %9s\n",
		"bench", "sc", "sc-mods", "extra writes", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s | %10s %10s | %12d | %8.2f%%\n",
			r.Workload, r.SC.Elapsed, r.SCMods.Elapsed, r.ExtraWrites, r.OverheadPct)
	}
	return b.String()
}
