package analysis

import (
	"path/filepath"
	"testing"
)

// The analyzer parses and type-checks each package once and hands the same
// *Package (and the same interprocedural Index) to every rule. These
// benchmarks quantify what that sharing buys by comparing the real
// architecture against the naive one — a fresh load per rule — over a
// mid-sized package. The naive shape pays the parse, type-check and
// import-resolution cost once per rule, and each confinement row is one.

func BenchmarkLintSharedLoad(b *testing.B) {
	dir := filepath.Join("..", "heap")
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkg, err := loader.Load(dir, "")
		if err != nil {
			b.Fatal(err)
		}
		Run([]*Package{pkg}, DefaultRules())
	}
}

func BenchmarkLintPerRuleLoad(b *testing.B) {
	dir := filepath.Join("..", "heap")
	for i := 0; i < b.N; i++ {
		for _, r := range DefaultRules() {
			loader, err := NewLoader(".")
			if err != nil {
				b.Fatal(err)
			}
			pkg, err := loader.Load(dir, "")
			if err != nil {
				b.Fatal(err)
			}
			Run([]*Package{pkg}, []Rule{r})
		}
	}
}
