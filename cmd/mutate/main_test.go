package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repligc/internal/analysis"
)

// TestCatalogueApplies holds mutants.json to what the runner needs of it:
// unique ids; each mutant's file and declaration exist, and its old text
// occurs once in the declaration; the mutated file parses; no mutant touches the code
// the runner builds once a run (gclint and the runner); and every target is a
// gclint rule, a named oracle or a retired rule, none of them twice.
func TestCatalogueApplies(t *testing.T) {
	root := filepath.Join("..", "..")
	b, err := os.ReadFile(filepath.Join(root, "mutants.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cat Catalogue
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, r := range analysis.DefaultRules() {
		rules = append(rules, r.Name())
	}
	named := make(map[string]int)
	for _, n := range slices.Concat(cat.Oracles, cat.Retired) {
		if named[n]++; named[n] > 1 || slices.Contains(rules, n) {
			t.Errorf("target %q is named twice", n)
		}
	}
	targets := slices.Concat(rules, cat.Oracles, cat.Retired)
	seen := make(map[string]bool)
	for _, m := range cat.Mutants {
		if seen[m.ID] || m.ID == "" {
			t.Errorf("mutant id %q is empty or not unique", m.ID)
		}
		seen[m.ID] = true
		for _, dir := range []string{"internal/analysis/", "cmd/gclint/", "cmd/mutate/"} {
			if strings.HasPrefix(m.File, dir) {
				t.Errorf("%s: edits %s, which the runner builds once a run", m.ID, dir)
			}
		}
		if m.Target != "" && !slices.Contains(targets, m.Target) {
			t.Errorf("%s: target %q is no gclint rule, named oracle or retired rule", m.ID, m.Target)
		}
		if m.From == "" || m.Old == m.New {
			t.Errorf("%s: no source given, or old and new are the same", m.ID)
		}
		src, err := os.ReadFile(filepath.Join(root, m.File))
		if err != nil {
			t.Errorf("%s: %v", m.ID, err)
			continue
		}
		out, err := Apply(m, src)
		if err != nil {
			t.Errorf("%s: %v", m.ID, err)
			continue
		}
		if _, err := parser.ParseFile(token.NewFileSet(), m.File, out, 0); err != nil {
			t.Errorf("%s: the mutated file does not parse: %v", m.ID, err)
		}
	}
}
