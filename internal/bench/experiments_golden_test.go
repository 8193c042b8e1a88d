package bench

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateExperimentsGolden = flag.Bool("update-experiments-golden", false,
	"rewrite testdata/experiments_golden.txt from the current tree")

// TestExperimentsGolden pins the paper section of the evaluation: the text of
// every table, figure and ablation at quick scale, in the order and with the
// separators `rtgc-bench -quick all` prints them. Everything in it is
// simulated, so it is a pure function of the tree; a change to the suite, the
// formatters or the command line that claims "same output" must leave the
// file untouched, and a collector or cost-model change that moves a line
// regenerates it and explains the line.
func TestExperimentsGolden(t *testing.T) {
	got, err := allExperimentsText(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "experiments_golden.txt"), *updateExperimentsGolden, got)
}

// allExperimentsText is what `rtgc-bench all` writes to stdout: each row of
// Experiments followed by a blank line.
func allExperimentsText(s *Suite) (string, error) {
	var b strings.Builder
	for _, e := range Experiments {
		text, err := e.Text(s)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.Name, err)
		}
		b.WriteString(text + "\n")
	}
	return b.String(), nil
}

// TestEachCellRunsOnce holds the grid to its purpose: however many tables,
// figures, ablations and tests read a cell, it is executed once. The paper's
// grid is 69 cells — three workloads × four (O, N) settings × the five paper
// configurations, plus three workloads × three rt variants in the 50 ms cell —
// and the tests that share this suite and run before this one stay inside it;
// printing every experiment used to take 103 runs. (TestTable1Shape, in a
// later file, adds the rig.Table rows and cells no experiment prints.)
func TestEachCellRunsOnce(t *testing.T) {
	s := quickSuite()
	for pass := 0; pass < 2; pass++ {
		if _, err := allExperimentsText(s); err != nil {
			t.Fatal(err)
		}
		if s.Executed != 69 || len(s.grid) != 69 {
			t.Fatalf("pass %d: %d workload runs for %d cells, want 69 for 69", pass, s.Executed, len(s.grid))
		}
	}

	// The count above is only the number of runs if nothing goes around the
	// grid: outside Cell, the one caller of Run in the package is the perf
	// report's leg runner, whose runs carry a recorder and are not cells.
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	for _, f := range pkgs["bench"].Files {
		for _, d := range f.Decls {
			in := "(package level)"
			if fn, ok := d.(*ast.FuncDecl); ok {
				in = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "Run" {
						callers = append(callers, in)
					}
				}
				return true
			})
		}
	}
	sort.Strings(callers)
	if got := strings.Join(callers, " "); got != "Cell runLeg" {
		t.Errorf("Run is called from %q, want only from Cell and runLeg", got)
	}
}
