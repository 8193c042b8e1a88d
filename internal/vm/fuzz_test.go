package vm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/vm"
)

// progGen produces random, scope-correct, deterministic MiniML programs of
// integer type. Every generated program terminates (recursion is always on
// a structurally decreasing counter) and prints a single integer, so runs
// under different collectors are directly comparable.
type progGen struct {
	rng   *rand.Rand
	vars  []string // in-scope integer variables
	funcs []string // in-scope int->int functions
	depth int
	next  int
}

func (g *progGen) fresh(prefix string) string {
	g.next++
	return fmt.Sprintf("%s%d", prefix, g.next)
}

// intExpr emits an integer-valued expression.
func (g *progGen) intExpr() string {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 5 {
		return g.atom()
	}
	switch g.rng.Intn(10) {
	case 0, 1:
		return fmt.Sprintf("(%s + %s)", g.intExpr(), g.intExpr())
	case 2:
		return fmt.Sprintf("(%s * %s)", g.atom(), g.atom())
	case 3:
		return fmt.Sprintf("(%s - %s)", g.intExpr(), g.atom())
	case 4:
		return fmt.Sprintf("(if %s < %s then %s else %s)",
			g.atom(), g.atom(), g.intExpr(), g.intExpr())
	case 5:
		v := g.fresh("v")
		g.vars = append(g.vars, v)
		body := g.intExpr()
		g.vars = g.vars[:len(g.vars)-1]
		return fmt.Sprintf("(let %s = %s in %s)", v, g.intExpr(), body)
	case 6:
		if len(g.funcs) > 0 {
			f := g.funcs[g.rng.Intn(len(g.funcs))]
			return fmt.Sprintf("(%s %s)", f, g.atom())
		}
		return g.atom()
	case 7:
		// Tuple round trip.
		return fmt.Sprintf("(#1 (%s, %s) + #2 (0, %s))", g.intExpr(), g.atom(), g.atom())
	case 8:
		// List fold via a local recursive function.
		f := g.fresh("sum")
		return fmt.Sprintf(
			"(fun %s l = case l of [] => 0 | x :: r => x + %s r in %s [%s, %s, %s])",
			f, f, f, g.atom(), g.atom(), g.atom())
	default:
		// Ref cell round trip.
		r := g.fresh("r")
		return fmt.Sprintf("(let %s = ref %s in (%s := !%s + %s; !%s))",
			r, g.atom(), r, r, g.atom(), r)
	}
}

func (g *progGen) atom() string {
	if len(g.vars) > 0 && g.rng.Intn(2) == 0 {
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	return fmt.Sprintf("%d", g.rng.Intn(100))
}

// gen produces a whole program: a few top-level functions, then a print of
// a checksum expression.
func genProgram(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	var b strings.Builder
	nf := 1 + g.rng.Intn(3)
	for i := 0; i < nf; i++ {
		f := g.fresh("f")
		p := g.fresh("x")
		g.vars = []string{p}
		// Structural recursion on a counter guarantees termination.
		fmt.Fprintf(&b, "fun %s %s = if %s <= 0 then %s else %s + %s (%s - 1) in\n",
			f, p, p, g.atom(), g.intExpr(), f, p)
		g.vars = nil
		g.funcs = append(g.funcs, f)
	}
	fmt.Fprintf(&b, "print (itos (%s))\n", g.intExpr())
	return b.String()
}

// runUnder executes src under the named collector with a small heap.
func runUnder(t *testing.T, src, collector string) (string, error) {
	t.Helper()
	h := heap.New(heap.Config{NurseryBytes: 24 << 10, NurseryCapBytes: 2 << 20, OldSemiBytes: 32 << 20})
	pol := core.LogAllMutations
	if collector == "sc" {
		pol = core.LogPointersOnly
	}
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), pol)
	var gc core.Collector
	switch collector {
	case "sc":
		gc = stopcopy.New(h, stopcopy.Config{NurseryBytes: 24 << 10, MajorThresholdBytes: 128 << 10})
	case "rt":
		gc = core.NewReplicating(h, core.Config{
			NurseryBytes: 24 << 10, MajorThresholdBytes: 128 << 10,
			CopyLimitBytes: 4 << 10, IncrementalMinor: true, IncrementalMajor: true,
		})
	case "rt-defer":
		gc = core.NewReplicating(h, core.Config{
			NurseryBytes: 24 << 10, MajorThresholdBytes: 128 << 10,
			CopyLimitBytes: 4 << 10, IncrementalMinor: true, IncrementalMajor: true,
			DeferMutableCopies: true,
		})
	}
	m.AttachGC(gc)
	prog, err := lang.Compile(m, src)
	if err != nil {
		return "", err
	}
	machine := vm.New(m, prog)
	machine.MaxSteps = 50_000_000
	if err := machine.Run(); err != nil {
		return machine.Output.String(), err
	}
	gc.FinishCycles(m)
	if err := core.AuditHeap(m); err != nil {
		return "", fmt.Errorf("heap audit: %w", err)
	}
	return machine.Output.String(), nil
}

// TestDifferentialFuzz generates random programs and demands identical
// output under stop-and-copy, real-time, and real-time collection with
// deferred mutable copies.
func TestDifferentialFuzz(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		src := genProgram(seed)
		ref, err := runUnder(t, src, "sc")
		if err != nil {
			t.Fatalf("seed %d under sc: %v\n%s", seed, err, src)
		}
		for _, gc := range []string{"rt", "rt-defer"} {
			got, err := runUnder(t, src, gc)
			if err != nil {
				t.Fatalf("seed %d under %s: %v\n%s", seed, gc, err, src)
			}
			if got != ref {
				t.Fatalf("seed %d: %s output %q != sc output %q\n%s", seed, gc, got, ref, src)
			}
		}
	}
}

// TestFuzzWithPrelude runs generated programs against prelude list
// machinery for extra allocation pressure.
func TestFuzzWithPrelude(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(seed * 977))}
		src := fmt.Sprintf(`
let data = map (fn x => (x * %d) mod 97) (range 0 200) in
let sorted = msort (fn a => fn b => a <= b) data in
print (itos (suml sorted + %s))`, 3+seed, g.intExpr())
		ref, err := runUnder(t, lang.Prelude+src, "sc")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := runUnder(t, lang.Prelude+src, "rt")
		if err != nil {
			t.Fatalf("seed %d rt: %v", seed, err)
		}
		if got != ref {
			t.Fatalf("seed %d: rt %q != sc %q", seed, got, ref)
		}
	}
}
