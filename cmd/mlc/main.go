// Command mlc compiles a MiniML program and prints its bytecode — the
// compiler substrate on its own. Compilation itself runs on the simulated
// heap (this is the paper's Comp workload), so -stats also reports what the
// compilation did to the collector.
//
// Usage:
//
//	mlc [-stats] program.ml
package main

import (
	"flag"
	"fmt"
	"os"

	"repligc/internal/lang"
	"repligc/internal/rig"
)

//gclint:io reads the MiniML source file named on the command line
func main() {
	stats := flag.Bool("stats", false, "report heap/collector statistics of the compilation")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mlc [-stats] program.ml")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(1)
	}

	rt, err := rig.New(rig.Config{Collector: rig.SCMods, Params: rig.Params{NBytes: 1 << 20, OBytes: 8 << 20}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(1)
	}
	m := rt.Mutator

	prog, err := lang.Compile(m, string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(prog.Disassemble())

	if *stats {
		fmt.Fprintf(os.Stderr, "\ncompilation allocated %.2f KB on the simulated heap, "+
			"%d log entries, %d minor collections\n",
			float64(m.BytesAllocated)/1024, m.LogWrites, rt.GC.Stats().MinorCollections)
	}
}
