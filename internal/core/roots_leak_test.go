package core_test

import (
	"strings"
	"testing"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
)

// TestCompileLeavesNoRootSource: the compiler registers a root source for
// its open code buffers on every call. A compiling session makes thousands
// of calls against one mutator, so every way out of Compile — a program, a
// parse error, a compile error, heap exhaustion — must leave the root set as
// it found it, or each later pause walks the dead sources.
func TestCompileLeavesNoRootSource(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 32 << 10, NurseryCapBytes: 256 << 10, OldSemiBytes: 1 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	m.AttachGC(stopcopy.New(h, stopcopy.Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 256 << 10}))
	before := m.Roots.SourceCount()

	for i := 0; i < 1000; i++ {
		if _, err := lang.Compile(m, `fun f x = case x of [] => 0 | y :: r => y + f r in f [1, 2, 3]`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lang.Compile(m, `let x = in`); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := lang.Compile(m, `fn x => x + unbound`); err == nil {
		t.Fatal("unbound-variable error expected")
	}
	if _, err := lang.Compile(m, strings.Repeat(lang.Prelude, 40)+"0"); !core.IsOOM(err) {
		t.Fatalf("a 1 MB heap should not hold forty preludes' ASTs: %v", err)
	}
	if after := m.Roots.SourceCount(); after != before {
		t.Fatalf("root sources grew from %d to %d", before, after)
	}
}
