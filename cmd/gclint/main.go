// Command gclint is the repository's invariant linter: a stdlib-only static
// analyzer that enforces the discipline the replication collector's
// correctness rests on. One table of confinements ("calls to these names may
// appear only in those packages") carries the logging write barrier, the
// from-space invariant's forwarding hygiene, simulated-clock-only timing,
// file-I/O confinement, the collector packages' panic discipline, and the
// single places a runtime is assembled, a flight recorder attached, a pause
// opened, a finished run read and the torture driver imported. Beside it sit
// deterministic iteration, dispatch exhaustiveness and stale heap.Values held
// across may-flip calls, the one check built on per-function call-graph
// summaries. See DESIGN.md, "Machine-checked invariants", for the rule ↔
// paper-invariant catalogue; -rules prints the table.
//
// Usage:
//
//	gclint [-rules] [-summaries] [-github] [-out file] [packages]
//
// Packages are go list patterns relative to the current directory and
// default to ./...; go list's ./... does not enter a nested module, so a
// local pattern naming one (./benchmarks/host) is listed from inside it. The
// exit status is 0 when the tree is clean, 1 when violations are found, and
// 2 on usage or load errors. Output modes:
//
//	-github     print findings as GitHub Actions ::error annotations
//	-out file   additionally write the findings as a JSON array to file
//	-summaries  dump the interprocedural per-function summaries and exit
//
// Violations are suppressed with
//
//	//gclint:allow rule[,rule] -- reason why this site is correct
//
// on the offending line or the line above, or in a function's doc comment,
// where it covers the whole function. The reason is mandatory, and unknown
// rule names and annotations that suppress nothing are themselves findings.
// The one other annotation, //gclint:dispatch, marks a switch that must stay
// exhaustive.
package main

import (
	"flag"
	"fmt"
	"os"

	"repligc/internal/analysis"
)

//gclint:allow io -- writes the JSON findings document requested with -out
func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	summaries := flag.Bool("summaries", false, "dump interprocedural function summaries and exit")
	githubMode := flag.Bool("github", false, "print findings as GitHub Actions ::error annotations")
	outFile := flag.String("out", "", "also write the JSON findings document to this file")
	flag.Parse()

	rules := analysis.DefaultRules()
	if *listRules {
		for _, r := range rules {
			fmt.Printf("%-16s %s\n", r.Name(), r.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Packages()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
		os.Exit(2)
	}

	if *summaries {
		idx := analysis.BuildIndex(pkgs)
		for _, line := range idx.Summaries() {
			fmt.Println(line)
		}
		return
	}

	diags := analysis.Run(pkgs, rules)

	if *outFile != "" {
		doc, err := analysis.DiagnosticsJSON(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*outFile, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
			os.Exit(2)
		}
	}

	for _, d := range diags {
		if *githubMode {
			fmt.Println(analysis.GitHubAnnotation(d))
		} else {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gclint: %d violation(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
