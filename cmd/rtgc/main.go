// Command rtgc compiles and runs a MiniML program on the simulated heap
// under a chosen garbage collector, then reports the collector's pause-time
// and work statistics — a direct way to watch the replication collector
// bound pauses on your own programs.
//
// Usage:
//
//	rtgc [flags] program.ml
//	rtgc -restore DIR
//	rtgc [-gc C] [-stats] [-worst K] [-trace FILE] -serve SPECFILE
//
// The collector flags mirror the paper's parameters: -gc selects the
// configuration, -n/-o/-l set N, O and L in kilobytes. -S prints the
// compiled bytecode instead of running it; the compilation is then the run
// -stats reports on. With -serve, no program runs: the open-loop serving
// engine materialises the request spec (which sizes the heap itself) and
// prints its latency/SLO digest under the selected collector, and -stats,
// -worst and -trace look at that run. A flag the chosen mode cannot honour is
// a usage error, not silently dropped.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/rig"
	"repligc/internal/trace"
	"repligc/internal/vm"
)

//gclint:allow io -- reads the MiniML source program and writes the optional trace/checkpoint artifacts
func main() {
	gcName := flag.String("gc", "rt", "collector: "+rig.Names())
	nKB := flag.Int64("n", 200, "nursery size N in KB")
	oKB := flag.Int64("o", 1024, "major threshold O in KB")
	lKB := flag.Int64("l", 100, "copy limit L in KB (incremental configurations)")
	oldMB := flag.Int64("old", 96, "old-space semispace size in MB")
	stats := flag.Bool("stats", true, "print the run's report to stderr: collector counters, pause quantiles, utilization, MMU, phase times")
	disasm := flag.Bool("S", false, "print the compiled bytecode instead of running (-stats then reports the compilation)")
	census := flag.Bool("census", false, "print a live-object census by kind after the run")
	prelude := flag.Bool("prelude", false, "prepend the MiniML standard prelude")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the run to this file")
	worst := flag.Int("worst", 0, "print the K longest pauses to stderr, each with its phase times, bytes copied and log entries")
	ckptDir := flag.String("checkpoint", "", "write crash-consistent incremental checkpoints to this directory (replicating collectors only)")
	restoreDir := flag.String("restore", "", "recover the newest checkpoint from this directory, audit it, and print its summary (no program runs)")
	serveSpec := flag.String("serve", "", "serve the open-loop request spec in this file under -gc and print the serving digest (no program runs)")
	flag.Parse()
	// -restore and -serve are modes that run no program: each takes the
	// place of the program operand, so a program beside one (or the two
	// together) would be silently ignored and is a usage error instead. Nor
	// does either mode read every flag: one it would ignore is refused.
	modes, ignored := 0, ""
	for _, mode := range [][]string{{"restore"}, {"serve", "gc", "stats", "worst", "trace"}} {
		if flag.Lookup(mode[0]).Value.String() == "" {
			continue
		}
		modes++
		flag.Visit(func(f *flag.Flag) {
			if !slices.Contains(mode, f.Name) {
				ignored += fmt.Sprintf("rtgc: -%s has no meaning beside -%s\n", f.Name, mode[0])
			}
		})
	}
	if flag.NArg() != 1-modes || ignored != "" {
		fmt.Fprint(os.Stderr, ignored)
		fmt.Fprintln(os.Stderr, "usage: rtgc [flags] program.ml")
		fmt.Fprintln(os.Stderr, "       rtgc -restore DIR")
		fmt.Fprintln(os.Stderr, "       rtgc [-gc C] [-stats] [-worst K] [-trace FILE] -serve SPECFILE")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *restoreDir != "" {
		os.Exit(runRestore(*restoreDir))
	}
	// One table names the collectors for both modes.
	coll, err := rig.Named(*gcName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		os.Exit(2)
	}
	look := traceFlags{file: *traceFile, stats: *stats, worst: *worst}
	if *serveSpec != "" {
		os.Exit(runServeSpec(*serveSpec, coll, look))
	}
	if *nKB <= 0 || *oKB <= 0 || *lKB <= 0 || *oldMB <= 0 {
		fmt.Fprintln(os.Stderr, "rtgc: -n, -o, -l and -old must be positive")
		os.Exit(2)
	}
	// rtgc's own nursery cap, not the shared rule: -checkpoint artifacts
	// record the heap's geometry and a fingerprint over address-bearing
	// words, so the line -restore prints would move with the cap.
	hc := heap.Config{NurseryBytes: *nKB << 10, NurseryCapBytes: 32 << 20, OldSemiBytes: *oldMB << 20}
	// -restore maps no arena above checkpoint.DefaultArenaLimit, so a larger
	// heap would write checkpoints that nothing restores.
	if lim := checkpoint.DefaultArenaLimit; *ckptDir != "" && (*nKB > lim>>10 || *oldMB > lim>>20 || hc.ArenaBytes() > lim) {
		fmt.Fprintf(os.Stderr, "rtgc: -checkpoint: -n %d and -old %d need more than the %d-byte arena -restore maps\n", *nKB, *oldMB, lim)
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		os.Exit(1)
	}

	rc := rig.Config{
		Collector:       coll,
		Params:          rig.Params{NBytes: *nKB << 10, OBytes: *oKB << 10, LBytes: *lKB << 10},
		OldSemiBytes:    hc.OldSemiBytes,
		NurseryCapBytes: hc.NurseryCapBytes,
		Trace:           look.recorder(),
	}
	if *ckptDir != "" {
		rc.Checkpoint = checkpoint.NewWriter(checkpoint.Config{Dir: *ckptDir})
	}
	rt, err := rig.New(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		os.Exit(2)
	}
	h, m := rt.Heap, rt.Mutator

	text := string(src)
	if *prelude {
		text = lang.Prelude + text
	}
	prog, err := lang.Compile(m, text)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", err)
		os.Exit(1)
	}
	var runErr error
	if *disasm {
		fmt.Print(prog.Disassemble())
	} else {
		machine := vm.New(m, prog)
		runErr = machine.Run()
		os.Stdout.Write(machine.Output.Bytes())
	}
	if err := rt.Finish(); err != nil && runErr == nil {
		runErr = err
	}
	if err := look.export(rt, flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: writing trace: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		// Every program-level failure — MiniML runtime errors and heap
		// exhaustion (the typed core.OOMError) alike — is one diagnostic
		// line and exit status 1, never a Go panic traceback.
		fmt.Fprintf(os.Stderr, "rtgc: %v\n", runErr)
		os.Exit(1)
	}

	boundErr := look.report(rt.Stats(), flag.Arg(0))
	if *census {
		fmt.Fprintf(os.Stderr, "\n--- live-object census ---\n")
		c := h.Census(&h.Nursery, h.OldFrom())
		for k := heap.KindRecord; k <= heap.KindMax; k++ {
			if e, ok := c[k]; ok {
				fmt.Fprintf(os.Stderr, "%-8s %8d objects %10.1f KB\n", k, e.Count, float64(e.Bytes)/1024)
			}
		}
	}
	if boundErr != nil {
		os.Exit(1)
	}
}

// traceFlags are the flags that look at a finished run; both modes that run
// something honour them.
type traceFlags struct {
	file  string
	stats bool
	worst int
}

// recorder is the flight recorder the run needs: one only when a Chrome trace
// file was asked for. Everything else the flags print is the run's report.
func (f traceFlags) recorder() *trace.Recorder {
	if f.file == "" {
		return nil
	}
	return trace.NewRecorder(1 << 20)
}

// export writes the Chrome trace file, when one was asked for.
//
//gclint:allow io -- writes the optional Chrome trace artifact
func (f traceFlags) export(rt *rig.Runtime, subject string) error {
	tr := rt.Recorder
	if tr == nil {
		return nil
	}
	labels := map[string]string{
		"program":   subject,
		"collector": rt.Collector,
		//gclint:allow wallclock -- exporter glue: the wall-clock stamp only labels the artifact; nothing simulated reads it
		"exported_at": time.Now().UTC().Format(time.RFC3339),
	}
	data, err := trace.ChromeTrace(tr.Events(), labels)
	if err == nil {
		err = os.WriteFile(f.file, data, 0o644)
	}
	if err != nil {
		return err
	}
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: ring dropped %d events; %s holds the retained suffix\n", n, f.file)
	}
	return nil
}

// report prints what the flags ask of the finished run st: its report, and
// the worst pauses with its pause record held to the pause bound, whose
// excess it returns.
func (f traceFlags) report(st rig.Stats, subject string) error {
	if f.stats {
		fmt.Fprintf(os.Stderr, "\n%s", st.Text(subject))
	}
	if f.worst <= 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "\n%s", st.Pauses.WorstPausesTable(f.worst))
	text, err := st.CheckPauseBound()
	fmt.Fprint(os.Stderr, text)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pause bound: %v\n", err)
	}
	return err
}

// runRestore recovers the newest checkpoint epoch in dir, re-attaches a
// runtime over it, audits the heap, and prints the recovered summary. The
// exit status is the contract: 0 for a verified recovery, 1 for a typed
// corruption rejection or audit failure.
func runRestore(dir string) int {
	r, err := checkpoint.Recover(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: restore: %v\n", err)
		return 1
	}
	rt, err := rig.New(rig.Config{Collector: rig.RT, Heap: r.Heap})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: restore: %v\n", err)
		return 1
	}
	m := rt.Mutator
	r.Attach(m, rt.GC.(*core.Replicating))
	if err := core.AuditHeap(m); err != nil {
		fmt.Fprintf(os.Stderr, "rtgc: restore: recovered heap failed its audit: %v\n", err)
		return 1
	}
	h := r.Heap
	fmt.Printf("restored epoch %d from %s\n", r.Epoch, dir)
	fmt.Printf("fingerprint        %#016x (verified)\n", r.Fingerprint)
	fmt.Printf("old generation     %.2f MB live\n", float64(h.OldFrom().UsedBytes())/(1<<20))
	fmt.Printf("nursery            %.2f KB live\n", float64(h.Nursery.UsedBytes())/1024)
	fmt.Printf("roots              %d\n", len(r.Roots))
	fmt.Printf("log entries        %d retained\n", len(r.LogEntries))
	fmt.Printf("audit              clean\n")
	return 0
}
