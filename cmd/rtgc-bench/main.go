// Command rtgc-bench regenerates every table and figure of the paper's
// evaluation (§4). Each subcommand reproduces one artifact; "all" runs the
// whole suite. Reported times are simulated milliseconds from the
// deterministic cost model calibrated to the paper's hardware (2 MB/s
// copying, so L = 100 KB yields 50 ms pauses).
//
// Usage:
//
//	rtgc-bench [-quick] table1|table2|table3|fig5|fig6|fig7|fig8|fig9|fig10|ablations|all
//	rtgc-bench [-quick] [-out FILE] [-baseline FILE] perf
//	rtgc-bench validate FILE
//	rtgc-bench [-quick] [-out FILE] trace [workload]
//	rtgc-bench [-out FILE] crashmatrix
//	rtgc-bench [-out FILE] [-record FILE] serve SPECFILE
//	rtgc-bench [-out FILE] servereplay TRACEFILE
//
// "perf" emits the performance trajectory: per-workload
// baseline-vs-coalesced-vs-checkpointed log and pause metrics, the serving
// section and the multi-mutator section, all in simulated time. With
// -baseline, a fresh perf report is additionally gated against a committed
// one (BENCH_SMOKE.json): every field must be equal, or the run fails naming
// the first field that is not. Host time is not this command's business; it
// is measured by benchmarks/host.
//
// "validate" checks any document this command or rtgc emitted — perf report,
// serving report, crash-matrix report, Chrome trace —
// against its own schema and internal consistency (the CI artifact check:
// shape only, never thresholds on the numbers). It tells them apart by what
// the document contains; anything else exits 1 naming what was found.
//
// "trace" runs the paper workloads (Primes, Sort, Comp — or just the one
// named) under the full real-time configuration with the event recorder
// attached, prints each run's trace digest (pause quantiles, MMU curve,
// per-phase attribution) and, with -out, writes a Chrome trace-event JSON
// per workload (Perfetto-loadable; "-out x.json" yields x-primes.json
// etc.).
//
// "serve" runs the GC-under-live-traffic experiment (internal/workload): a
// spec-driven open-loop request trace is materialised and served under the
// naive-barrier and coalesced legs, producing the schema-5 serving report
// (per-cohort latency tails, SLO breakdowns, queue stats, pause-intrusion
// attribution, request-granularity MMU). With -record, the materialised
// trace is also written as a fingerprinted artifact; "servereplay" serves
// such an artifact bit-identically.
//
// "crashmatrix" runs the full deterministic crash-point matrix (workloads ×
// crash plans, newest-epoch and all-epoch damage, plus each workload's
// undamaged baseline row: recover, verify the fingerprint, audit, continue,
// walk the degradation ladder) and writes the repligc-crash-matrix/1 report
// — the CI artifact proving every cell ends in verified recovery or a typed
// corruption rejection.
package main

import (
	"flag"
	"fmt"
	"os"

	"repligc/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use the small test-scale workloads")
	out := flag.String("out", "", "write the perf report to this file instead of stdout")
	baseline := flag.String("baseline", "", "gate a fresh perf report against this committed report (every field equal)")
	record := flag.String("record", "", "serve: also write the materialised trace artifact to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rtgc-bench [-quick] <experiment>\n")
		fmt.Fprintf(os.Stderr, "       rtgc-bench [-quick] [-out FILE] [-baseline FILE] perf\n")
		fmt.Fprintf(os.Stderr, "       rtgc-bench validate FILE\n")
		fmt.Fprintf(os.Stderr, "       rtgc-bench [-quick] [-out FILE] trace [Primes|Sort|Comp]\n")
		fmt.Fprintf(os.Stderr, "       rtgc-bench [-out FILE] crashmatrix\n")
		fmt.Fprintf(os.Stderr, "       rtgc-bench [-out FILE] [-record FILE] serve SPECFILE\n")
		fmt.Fprintf(os.Stderr, "       rtgc-bench [-out FILE] servereplay TRACEFILE\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 ablations all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	wantArgs := 1
	switch {
	case flag.NArg() > 0 && (flag.Arg(0) == "validate" || flag.Arg(0) == "serve" || flag.Arg(0) == "servereplay"):
		wantArgs = 2
	case flag.NArg() == 2 && flag.Arg(0) == "trace":
		wantArgs = 2 // optional workload selector
	}
	if flag.NArg() != wantArgs {
		flag.Usage()
		os.Exit(2)
	}

	scale, scaleName := bench.DefaultScale(), "default"
	if *quick {
		scale, scaleName = bench.QuickScale(), "quick"
	}
	s := bench.NewSuite(scale)

	var run func(name string) error
	run = func(name string) error {
		switch name {
		case "table1":
			rows, err := s.Table1()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTable1(rows))
		case "fig5", "fig6":
			a, b, c, d, err := s.PauseHistograms()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatHistograms(a, b, c, d))
		case "fig7":
			comps, err := s.Fig7("Comp", bench.PaperParams()[0])
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig7("Comp", comps))
		case "fig8", "fig9", "fig10":
			figOf := map[string]struct {
				n int
				w string
			}{"fig8": {8, "Primes"}, "fig9": {9, "Comp"}, "fig10": {10, "Sort"}}[name]
			rows, err := s.Overheads(figOf.w)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatOverheads(figOf.n, rows))
		case "table2":
			rows, err := s.Table2()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTable2(rows))
		case "table3":
			rows, err := s.Table3()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTable3(rows))
		case "ablations":
			lazy, err := s.AblationLazy()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatAblation("Ablation: lazy log processing (paper §2.5)", lazy))
			fmt.Println()
			bounded, err := s.AblationBoundedLog()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatAblation("Ablation: bounded (incremental) log processing (paper §3.4 extension)", bounded))
			fmt.Println()
			deferred, err := s.AblationDeferMutables()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatAblation("Ablation: deferred mutable copying (paper §2.5 copy order)", deferred))
			fmt.Println()
			conc, err := s.AblationConcurrent()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatAblation("Ablation: interleaved concurrent-style pacing (paper §6)", conc))
			fmt.Println()
			logpol, err := s.AblationLogPolicy()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatLogPolicy(logpol))
		case "perf":
			return runPerf(scale, scaleName, *out, *baseline)
		case "crashmatrix":
			return runCrashMatrix(*out)
		case "validate":
			return runValidate(flag.Arg(1))
		case "serve":
			return runServe(flag.Arg(1), *out, *record)
		case "servereplay":
			return runServeReplay(flag.Arg(1), *out)
		case "trace":
			return runTrace(scale, flag.Arg(1), *out)
		case "all":
			for _, e := range []string{"table1", "fig5", "fig7", "fig8", "fig9", "fig10", "table2", "table3", "ablations"} {
				if err := run(e); err != nil {
					return err
				}
				fmt.Println()
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "rtgc-bench: %v\n", err)
		os.Exit(1)
	}
}
