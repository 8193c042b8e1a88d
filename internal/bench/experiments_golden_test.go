package bench

import (
	"flag"
	"path/filepath"
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

// allExperimentsText is what `rtgc-bench all` writes to stdout: each
// experiment's text followed by a blank line.
func allExperimentsText(s *Suite) (string, error) {
	var b strings.Builder
	emit := func(text string, err error) error {
		b.WriteString(text)
		b.WriteString("\n")
		return err
	}

	t1, err := s.Table1()
	if err := emit(FormatTable1(t1), err); err != nil {
		return "", err
	}
	scShort, rtShort, scLong, rtLong, err := s.PauseHistograms()
	if err != nil {
		return "", err
	}
	b.WriteString(FormatHistograms(scShort, rtShort, scLong, rtLong))
	b.WriteString("\n")
	comps, err := s.Fig7("Comp", PaperParams()[0])
	if err := emit(FormatFig7("Comp", comps), err); err != nil {
		return "", err
	}
	for _, fig := range []struct {
		n        int
		workload string
	}{{8, "Primes"}, {9, "Comp"}, {10, "Sort"}} {
		rows, err := s.Overheads(fig.workload)
		if err := emit(FormatOverheads(fig.n, rows), err); err != nil {
			return "", err
		}
	}
	t2, err := s.Table2()
	if err := emit(FormatTable2(t2), err); err != nil {
		return "", err
	}
	t3, err := s.Table3()
	if err := emit(FormatTable3(t3), err); err != nil {
		return "", err
	}
	for _, a := range []struct {
		title string
		run   func() ([]AblationRow, error)
	}{
		{"Ablation: lazy log processing (paper §2.5)", s.AblationLazy},
		{"Ablation: bounded (incremental) log processing (paper §3.4 extension)", s.AblationBoundedLog},
		{"Ablation: deferred mutable copying (paper §2.5 copy order)", s.AblationDeferMutables},
		{"Ablation: interleaved concurrent-style pacing (paper §6)", s.AblationConcurrent},
	} {
		rows, err := a.run()
		if err := emit(FormatAblation(a.title, rows), err); err != nil {
			return "", err
		}
	}
	logpol, err := s.AblationLogPolicy()
	if err := emit(FormatLogPolicy(logpol), err); err != nil {
		return "", err
	}
	return b.String(), nil
}
