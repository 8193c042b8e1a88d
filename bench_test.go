package repligc_test

// The testing.B benchmarks mirror the paper's evaluation artifacts: one
// bench per table/figure, each regenerating its rows/series at the quick
// workload scale and reporting the headline quantity as custom metrics
// (simulated milliseconds / percentages). Run the full-scale versions with
// `go run ./cmd/rtgc-bench <experiment>`.

import (
	"testing"

	"repligc/internal/bench"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

func suite() *bench.Suite { return bench.NewSuite(bench.QuickScale()) }

// BenchmarkTable1PauseTimes regenerates table 1 and reports the maximum
// pause of each collector (simulated ms).
func BenchmarkTable1PauseTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		var scMax, rtMax simtime.Duration
		for _, r := range rows {
			if r.SC[2] > scMax {
				scMax = r.SC[2]
			}
			if r.RT[2] > rtMax {
				rtMax = r.RT[2]
			}
		}
		b.ReportMetric(scMax.Milliseconds(), "sc-max-ms")
		b.ReportMetric(rtMax.Milliseconds(), "rt-max-ms")
	}
}

// BenchmarkFig5Fig6Histograms regenerates the pause histograms of
// figures 5 and 6 (Comp, N=0.2MB, O=1MB).
func BenchmarkFig5Fig6Histograms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		_, rtShort, scLong, _, err := s.PauseHistograms()
		if err != nil {
			b.Fatal(err)
		}
		short := 0
		for _, c := range rtShort.Counts {
			short += c
		}
		long := scLong.Overflow
		for _, c := range scLong.Counts {
			long += c
		}
		b.ReportMetric(float64(short), "rt-short-pauses")
		b.ReportMetric(float64(long), "sc-long-pauses")
	}
}

// BenchmarkFig7Breakdown regenerates figure 7's execution-time components.
func BenchmarkFig7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		comps, err := s.Fig7("Comp", bench.PaperParams()[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range comps {
			if c.Name == "mutator" {
				b.ReportMetric(c.Percent, "mutator-pct")
			}
		}
	}
}

func benchOverheads(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.Overheads(workload)
		if err != nil {
			b.Fatal(err)
		}
		var rt float64
		n := 0
		for _, row := range rows {
			for _, c := range row.Cells {
				if c.Config == rig.RT.Name {
					rt += c.Overhead
					n++
				}
			}
		}
		b.ReportMetric(rt/float64(n), "rt-overhead-pct")
	}
}

// BenchmarkFig8PrimesOverheads regenerates figure 8 (Primes elapsed times).
func BenchmarkFig8PrimesOverheads(b *testing.B) { benchOverheads(b, "Primes") }

// BenchmarkFig9CompOverheads regenerates figure 9 (Comp elapsed times).
func BenchmarkFig9CompOverheads(b *testing.B) { benchOverheads(b, "Comp") }

// BenchmarkFig10SortOverheads regenerates figure 10 (Sort elapsed times).
func BenchmarkFig10SortOverheads(b *testing.B) { benchOverheads(b, "Sort") }

// BenchmarkTable2LogCosts regenerates table 2 (reapply and flip costs).
func BenchmarkTable2LogCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		var cr, cf float64
		for _, r := range rows {
			cr += r.CRPct
			cf += r.CFPct
		}
		b.ReportMetric(cr/float64(len(rows)), "avg-CR-pct")
		b.ReportMetric(cf/float64(len(rows)), "avg-CF-pct")
	}
}

// BenchmarkTable3LatentGarbage regenerates table 3 (latent garbage).
func BenchmarkTable3LatentGarbage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		var g float64
		for _, r := range rows {
			g += float64(r.GBytes)
		}
		b.ReportMetric(g/1024, "total-G-KB")
	}
}

// BenchmarkAblationLazyLog measures the §2.5 lazy-log-processing variant.
func BenchmarkAblationLazyLog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.Ablation(rig.RTLazy)
		if err != nil {
			b.Fatal(err)
		}
		var base, lazy float64
		for _, r := range rows {
			base += float64(r.Base.GC.LogReapplied)
			lazy += float64(r.Var.GC.LogReapplied)
		}
		b.ReportMetric(base, "eager-reapplies")
		b.ReportMetric(lazy, "lazy-reapplies")
	}
}

// BenchmarkAblationLogPolicy measures the §4.5 compiler-modification cost.
func BenchmarkAblationLogPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.AblationLogPolicy()
		if err != nil {
			b.Fatal(err)
		}
		var over float64
		for _, r := range rows {
			over += r.OverheadPct
		}
		b.ReportMetric(over/float64(len(rows)), "mods-overhead-pct")
	}
}
