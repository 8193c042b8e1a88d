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

// compileAllocBudget is the Go allocations one warm Compile of a
// 200-definition generated module may make: the four outputs (program,
// blocks, one code slab, literal pool) and an allowance of three for what the
// mutator and the collector grow, amortised over the runs (the handle stack,
// the root set, the pause records). The compiler and its scratch come from
// the spare. 6 when written, against 22 when every compile allocated its own
// scratch, 103 when the buffers grew from empty and 2852 before the
// compiler's first diet.
const compileAllocBudget = 4 + 3

// sizeAllowance is how many more Go allocations a 400-definition module's
// compile may make than a 20-definition one's: a warm compile allocates only
// its output, whatever the module's size, and the mutator's and collector's
// amortised growth differs by about one. 1 when written (5 against 6), 3
// when every compile sized its own scratch, and 46 (68 against 114) when the
// buffers grew from empty.
const sizeAllowance = 2

func allocTestMutator() *core.Mutator {
	h := heap.New(heap.Config{NurseryBytes: 200 << 10, NurseryCapBytes: 4 << 20, OldSemiBytes: 16 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	m.AttachGC(stopcopy.New(h, stopcopy.Config{NurseryBytes: 200 << 10, MajorThresholdBytes: 1 << 20}))
	return m
}

func compileAllocs(t *testing.T, defs int) float64 {
	src := bench.GenerateModule(7, defs)
	m := allocTestMutator()
	got := testing.AllocsPerRun(20, func() {
		if _, err := lang.Compile(m, src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per compile of a %d-definition, %d-byte module", got, defs, len(src))
	return got
}

func TestCompileAllocBudget(t *testing.T) {
	if got := compileAllocs(t, 200); got > compileAllocBudget {
		t.Fatalf("Compile made %.0f Go allocations, budget %d", got, compileAllocBudget)
	}
}

// TestCompileAllocsIndependentOfSize: the census sizes every buffer once,
// so twenty times the definitions cost at most the allowance in allocations.
func TestCompileAllocsIndependentOfSize(t *testing.T) {
	small, large := compileAllocs(t, 20), compileAllocs(t, 400)
	if large-small > sizeAllowance {
		t.Fatalf("a 400-definition module made %.0f Go allocations, a 20-definition one %.0f: more than %d apart", large, small, sizeAllowance)
	}
}

func BenchmarkCompile(b *testing.B) {
	for _, size := range []struct {
		name string
		defs int
	}{{"small", 20}, {"large", 400}} {
		b.Run(size.name, func(b *testing.B) {
			src := bench.GenerateModule(7, size.defs)
			m := allocTestMutator()
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lang.Compile(m, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parseAllocBudget is the Go allocations one warm Parse of the prelude with
// a fresh symbol table may make: the table (its struct, index and names), the
// literal pool, and an allowance of three for what the mutator and the
// collector grow, amortised over the runs. The parser and its token array
// come from the spare compiler, as Compile's do. 5 when written, against 18
// when every parse built its own parser and grew its token array from empty.
const parseAllocBudget = 4 + 3

func TestParseAllocBudget(t *testing.T) {
	m, src := allocTestMutator(), lang.Prelude+"0"
	got := testing.AllocsPerRun(20, func() {
		mark := m.HandleMark()
		_, _, err := lang.Parse(m, lang.NewSymTab(m), src)
		m.PopHandles(mark)
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per parse of the %d-byte prelude", got, len(src))
	if got > parseAllocBudget {
		t.Fatalf("Parse made %.0f Go allocations, budget %d", got, parseAllocBudget)
	}
}
