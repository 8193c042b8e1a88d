package lang_test

import (
	"testing"

	"repligc/internal/bench"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
)

// compileAllocBudget is the Go allocations one Compile of the module below
// made when the compiler went on its diet (PR 12), plus a tenth. The count
// covers what Compile returns (program, blocks, one code slab, literal pool),
// the symbol table, the scratch stacks warming up and the collector's own
// pause records: 109 when written, against 2852 before the diet.
const compileAllocBudget = 119

func allocTestMutator() *core.Mutator {
	h := heap.New(heap.Config{NurseryBytes: 200 << 10, NurseryCapBytes: 4 << 20, OldSemiBytes: 16 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	m.AttachGC(stopcopy.New(h, stopcopy.Config{NurseryBytes: 200 << 10, MajorThresholdBytes: 1 << 20}))
	return m
}

func TestCompileAllocBudget(t *testing.T) {
	src := bench.GenerateModule(7, 200)
	m := allocTestMutator()
	got := testing.AllocsPerRun(20, func() {
		if _, err := lang.Compile(m, src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per compile of a %d-byte module", got, len(src))
	if got > compileAllocBudget {
		t.Fatalf("Compile made %.0f Go allocations, budget %d", got, compileAllocBudget)
	}
}

func BenchmarkCompile(b *testing.B) {
	src := bench.GenerateModule(7, 200)
	m := allocTestMutator()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Compile(m, src); err != nil {
			b.Fatal(err)
		}
	}
}
