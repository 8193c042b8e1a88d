// Command gclint is the repository's invariant linter: a stdlib-only static
// analyzer that enforces the discipline the replication collector's
// correctness rests on. One table of confinements ("calls to these names may
// appear only in those packages") carries the logging write barrier, the
// from-space invariant's forwarding hygiene, simulated-clock-only timing,
// file-I/O confinement, the collector packages' panic discipline, and the
// single places a runtime is assembled, a flight recorder attached, a pause
// opened, a finished run read and the torture driver imported. Beside it sit
// deterministic iteration, dispatch exhaustiveness and the interprocedural
// checks built on per-function call-graph summaries: stale heap.Values held
// across may-flip calls, barrier completeness on all dataflow paths, and
// pause-only collector state. See DESIGN.md, "Machine-checked invariants",
// for the rule ↔ paper-invariant catalogue; -rules prints the table.
//
// Usage:
//
//	gclint [-rules] [-summaries] [-json | -github] [-out file] [packages]
//
// Packages default to ./... relative to the module root. The exit status is
// 0 when the tree is clean, 1 when violations are found, and 2 on usage or
// load errors. Output modes:
//
//	-json       print findings as a JSON array on stdout
//	-github     print findings as GitHub Actions ::error annotations
//	-out file   additionally write the JSON findings document to file
//	-summaries  dump the interprocedural per-function summaries and exit
//
// Violations are suppressed with
//
//	//gclint:allow rule[,rule] -- reason why this site is correct
//
// on the offending line or the line above, or in a function's doc comment,
// where it covers the whole function. The reason is mandatory, and unknown
// rule names and annotations that suppress nothing are themselves findings.
// Three other annotations feed rules: //gclint:dispatch marks a switch that
// must stay exhaustive, //gclint:pauseonly <invariant> marks pause-only
// fields, and //gclint:pauseentry <reason> marks pause entry points.
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
	jsonMode := flag.Bool("json", false, "print findings as a JSON array on stdout")
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
	if *jsonMode && *githubMode {
		fmt.Fprintln(os.Stderr, "gclint: -json and -github are mutually exclusive")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(patterns)
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

	switch {
	case *jsonMode:
		doc, err := analysis.DiagnosticsJSON(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(doc)
	case *githubMode:
		for _, d := range diags {
			fmt.Println(analysis.GitHubAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gclint: %d violation(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
