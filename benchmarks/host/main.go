// Command host is the repository's benchmark: five workloads run through
// the public functions of every layer, timed on the host and on the
// simulated clock, with each output checked against an oracle. See
// README.md in this directory.
//
//	go run . -workload sort -seed 1 [-seconds 12] [-trace 1] [-out suite.json]
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 12, "measure timed iterations for this long (never fewer than 5 iterations)")
	traced := flag.Int("trace", 0, "1 adds the traced iteration and the layer probes, and reports per-layer metrics")
	outPath := flag.String("out", "", "add this run's report to the JSON file (other workloads in it are kept)")
	compare := flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two report files")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fatal("%v", err)
	}
	// One mutator thread, and the Go collector on the same processor: with a
	// second one its background work lands on a sibling and the run-to-run
	// spread of every host timing was half as wide again.
	runtime.GOMAXPROCS(1)

	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d\n  %s\n", *name, *seed, runtime.GOMAXPROCS(0), w.describe())
	out := runWorkload(w, *seconds, *traced == 1)
	rep := buildReport(*name, *seed, w.describe(), *traced == 1, out)
	rep.print(os.Stdout)
	if *outPath != "" {
		if err := addToFile(*outPath, rep); err != nil {
			fatal("%v", err)
		}
	}

	// The driver reads the last line: the end-to-end metrics every workload
	// has from an untraced run, everything else from a traced one.
	line := driverLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range endToEnd {
		if d.driver != (*traced == 1) {
			line.Metrics[d.name] = driverMetric{Value: out.metrics[d.name], Unit: d.unit}
		}
	}
	if *traced == 1 {
		for _, d := range perLayer {
			line.Metrics[d.name] = driverMetric{Value: out.metrics[d.name], Unit: d.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(data))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...)
	os.Exit(2)
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
