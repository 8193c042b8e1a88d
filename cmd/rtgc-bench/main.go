// Command rtgc-bench regenerates every table and figure of the paper's
// evaluation (§4). Each subcommand reproduces one artifact; "all" runs the
// whole suite. Reported times are simulated milliseconds from the
// deterministic cost model calibrated to the paper's hardware (2 MB/s
// copying, so L = 100 KB yields 50 ms pauses).
//
// Run without arguments, it prints its usage, which is derived from the two
// tables that define it: bench.Experiments and the commands in main. A flag
// the subcommand does not read — its usage line lists those it does; an
// experiment reads -quick only — is a usage error (exit 2).
//
// "perf" emits the performance trajectory: per-workload
// baseline-vs-coalesced-vs-checkpointed log and pause metrics and the serving
// section, all in simulated time (schema repligc-bench/10). With
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
// "trace" runs the paper workloads (Primes, Comp, Sort — or just the one
// named) under the full real-time configuration, prints each run's report
// (the rtgc -stats text: counters, pause quantiles, MMU curve, per-phase
// attribution), holds its pause record to the pause bound and, with -out,
// attaches the event recorder and writes a Chrome trace-event JSON per
// workload (Perfetto-loadable; "-out x.json" yields x-primes.json etc.).
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
	"slices"
	"strings"

	"repligc/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use the small test-scale workloads")
	out := flag.String("out", "", "write the perf report to this file instead of stdout")
	baseline := flag.String("baseline", "", "gate a fresh perf report against this committed report (every field equal)")
	record := flag.String("record", "", "serve: also write the materialised trace artifact to this file")
	worst := flag.Int("worst", 0, "trace: also print the K longest pauses, each with its phase times, bytes copied and log entries")
	scale, scaleName := bench.DefaultScale(), "default"
	// Every subcommand that is not an experiment (those are bench.Experiments):
	// the flags it reads and its operand as the usage line shows them — an
	// operand in brackets is optional — and what it runs.
	type command struct {
		name, flags, operand string
		run                  func(operand string) error
	}
	commands := []command{
		{"perf", "[-quick] [-out FILE] [-baseline FILE]", "", func(string) error { return runPerf(scale, scaleName, *out, *baseline) }},
		{"validate", "", "FILE", runValidate},
		{"trace", "[-quick] [-out FILE] [-worst K]", "[" + strings.Join(workloadNames(), "|") + "]", func(w string) error { return runTrace(scale, w, *out, *worst) }},
		{"crashmatrix", "[-out FILE]", "", func(string) error { return runCrashMatrix(*out) }},
		{"serve", "[-out FILE] [-record FILE]", "SPECFILE", func(spec string) error { return runServe(spec, *out, *record) }},
		{"servereplay", "[-out FILE]", "TRACEFILE", func(tr string) error { return runServeReplay(tr, *out) }},
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rtgc-bench [-quick] <experiment>\n")
		for _, c := range commands {
			fmt.Fprintf(os.Stderr, "       %s\n", strings.Join(strings.Fields("rtgc-bench "+c.flags+" "+c.name+" "+c.operand), " "))
		}
		fmt.Fprintf(os.Stderr, "experiments:")
		for _, e := range bench.Experiments {
			fmt.Fprintf(os.Stderr, " %s", strings.TrimSpace(e.Name+" "+e.Also))
		}
		fmt.Fprintf(os.Stderr, " all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *quick {
		scale, scaleName = bench.QuickScale(), "quick"
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Whatever is not in commands is an experiment, which reads -quick and
	// takes no operand; an unknown name fails there.
	c := command{flags: "[-quick]", run: func(string) error { return runExperiments(scale, args[0]) }}
	for _, known := range commands {
		if known.name == args[0] {
			c = known
		}
	}
	// A flag the subcommand does not read would be silently ignored, so it is
	// a usage error instead.
	reads, ignored := strings.Fields(strings.NewReplacer("[", "", "]", "").Replace(c.flags)), ""
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, "-"+f.Name) {
			ignored += fmt.Sprintf("rtgc-bench: -%s has no meaning for %s\n", f.Name, args[0])
		}
	})
	operand := ""
	switch given := args[1:]; {
	case ignored != "":
		fmt.Fprint(os.Stderr, ignored)
		flag.Usage()
		os.Exit(2)
	case len(given) == 1 && c.operand != "":
		operand = given[0]
	case len(given) != 0 || (c.operand != "" && c.operand[0] != '['):
		flag.Usage()
		os.Exit(2)
	}
	if err := c.run(operand); err != nil {
		fmt.Fprintf(os.Stderr, "rtgc-bench: %v\n", err)
		os.Exit(1)
	}
}

// runExperiments prints the experiment called name (by either of its names),
// or under "all" every experiment followed by a blank line.
func runExperiments(scale bench.Scale, name string) error {
	s, found := bench.NewSuite(scale), false
	for _, e := range bench.Experiments {
		if name != "all" && name != e.Name && !(e.Also != "" && name == e.Also) {
			continue
		}
		found = true
		text, err := e.Text(s)
		if err != nil {
			return err
		}
		fmt.Print(text)
		if name == "all" {
			fmt.Println()
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
