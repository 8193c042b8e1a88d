package main

// The -serve mode: instead of compiling a MiniML program, rtgc drives the
// open-loop serving engine (internal/workload) over a request spec and
// prints the serving digest — request latency tails, SLO breakdowns and
// GC pause intrusion under the collector selected with -gc.

import (
	"fmt"
	"os"

	"repligc/internal/rig"
	"repligc/internal/workload"
)

// runServeSpec parses the spec, materialises its trace, and serves it under
// the selected collector, then reports on the run as look asks.
// Exit status 0 on success, 1 on any failure.
//
//gclint:allow io -- reads the workload spec file
func runServeSpec(specPath string, coll rig.Collector, look traceFlags) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		return 1
	}
	spec, err := workload.ParseSpec(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		return 1
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		return 1
	}
	rt, err := workload.NewRuntime(spec, rig.Config{Collector: coll, Trace: look.recorder()})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		return 1
	}
	leg, err := workload.Serve(rt, tr, coll.Name, workload.ServeOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		return 1
	}
	sec := workload.NewSection(tr)
	sec.Legs = append(sec.Legs, *leg)
	fmt.Print(workload.FormatSection(sec))
	if err := look.export(rt, specPath); err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: writing trace: %v\n", err)
		return 1
	}
	if err := look.report(leg.Stats, specPath); err != nil {
		return 1
	}
	return 0
}
