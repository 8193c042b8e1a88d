package lang

import (
	"fmt"
	"strings"
	"testing"

	"repligc/internal/bytecode"
)

func compileSrc(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	m := testMutator()
	prog, err := Compile(m, src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return prog
}

// ops flattens one block's opcodes.
func ops(b bytecode.Block) []bytecode.Op {
	out := make([]bytecode.Op, len(b.Code))
	for i, ins := range b.Code {
		out[i] = ins.Op
	}
	return out
}

func hasOp(b bytecode.Block, op bytecode.Op) bool {
	for _, o := range ops(b) {
		if o == op {
			return true
		}
	}
	return false
}

func TestFlatClosureCapturesOnlyFreeVariables(t *testing.T) {
	// "dead" is in scope at the fn but not free in it: a flat closure
	// must not capture it.
	prog := compileSrc(t, `
let dead = [1, 2, 3] in
let live = 42 in
let f = fn x => x + live in
f 0`)
	var fnBlock *bytecode.Block
	for i := range prog.Blocks {
		if prog.Blocks[i].Name == "x" {
			fnBlock = &prog.Blocks[i]
		}
	}
	if fnBlock == nil {
		t.Fatalf("fn block not found:\n%s", prog.Disassemble())
	}
	// The closure must have exactly one capture (live).
	for _, blk := range prog.Blocks {
		for _, ins := range blk.Code {
			if ins.Op == bytecode.OpClosure {
				if ins.B != 1 {
					t.Fatalf("closure captures %d values, want 1:\n%s", ins.B, prog.Disassemble())
				}
			}
		}
	}
	if !hasOp(*fnBlock, bytecode.OpFree) {
		t.Fatalf("fn body must access its free variable via OpFree:\n%s", prog.Disassemble())
	}
}

func TestNestedFreeVariablePropagation(t *testing.T) {
	// z is free in the innermost fn and must be threaded through the
	// middle closure's captures.
	prog := compileSrc(t, `
let z = 7 in
let outer = fn a => fn b => a + b + z in
outer 1 2`)
	dis := prog.Disassemble()
	if !strings.Contains(dis, "free") {
		t.Fatalf("expected free-variable accesses:\n%s", dis)
	}
	// The middle block ("a") must build the inner closure from 2 captures
	// (a and z).
	for _, blk := range prog.Blocks {
		if blk.Name != "a" {
			continue
		}
		for _, ins := range blk.Code {
			if ins.Op == bytecode.OpClosure && ins.B != 2 {
				t.Fatalf("inner closure captures %d, want 2:\n%s", ins.B, dis)
			}
		}
	}
}

func TestRecursiveBindingsAreBoxed(t *testing.T) {
	prog := compileSrc(t, `
fun f n = if n = 0 then 0 else f (n - 1) in
let g = fn x => f x in
g 3`)
	dis := prog.Disassemble()
	if !strings.Contains(dis, "bindhole") || !strings.Contains(dis, "patch") {
		t.Fatalf("fun group must use bindhole/patch:\n%s", dis)
	}
	// g's body accesses f as a boxed free variable: free then proj.
	for _, blk := range prog.Blocks {
		if blk.Name != "x" {
			continue
		}
		sawFree := false
		for _, ins := range blk.Code {
			if ins.Op == bytecode.OpFree {
				sawFree = true
			}
			if sawFree && ins.Op == bytecode.OpProj && ins.A == 1 {
				return // boxed access found
			}
		}
	}
	t.Fatalf("boxed free-variable access (free; proj 1) not found:\n%s", dis)
}

func TestTailCallsEmitted(t *testing.T) {
	prog := compileSrc(t, `fun loop n = if n = 0 then 0 else loop (n - 1) in loop 5`)
	found := false
	for _, blk := range prog.Blocks {
		if hasOp(blk, bytecode.OpTailCall) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no tail call emitted:\n%s", prog.Disassemble())
	}
}

func TestTailPositionThroughCaseAndLet(t *testing.T) {
	prog := compileSrc(t, `
fun walk l = case l of [] => 0 | _ :: r => let s = r in walk s in
walk [1, 2]`)
	for _, blk := range prog.Blocks {
		if blk.Name == "walk" {
			if !hasOp(blk, bytecode.OpTailCall) {
				t.Fatalf("recursion through case+let must be a tail call:\n%s", prog.Disassemble())
			}
			return
		}
	}
	t.Fatal("walk block not found")
}

func TestBuiltinArityChecked(t *testing.T) {
	m := testMutator()
	cases := []string{
		`print`,            // builtins are not values
		`print "a" "b"`,    // too many
		`sub "a"`,          // too few
		`aset a 1`,         // too few (a also unbound, but arity errs first or not — either is an error)
		`unknownbuiltin 1`, // not a builtin at all
	}
	for _, src := range cases {
		if _, err := Compile(m, src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestShadowingBuiltinNames(t *testing.T) {
	// A local binding named like a builtin must win.
	prog := compileSrc(t, `let size = fn x => 99 in size "abc"`)
	for _, blk := range prog.Blocks {
		if hasOp(blk, bytecode.OpSize) {
			t.Fatalf("builtin op emitted despite shadowing:\n%s", prog.Disassemble())
		}
	}
}

func TestIntLiteralRange(t *testing.T) {
	m := testMutator()
	if _, err := Compile(m, `print (itos 4294967296)`); err == nil {
		t.Fatal("expected out-of-range literal error")
	}
}

func TestCaseFailureTrampolinesUnwind(t *testing.T) {
	// Deep nested patterns failing at different depths must compile with
	// balanced unwind code (popn/envpop before the next alternative).
	prog := compileSrc(t, `
fun f p = case p of
    ((1, a), b) => a + b
  | ((x, 2), _) => x
  | _ => 0 in
print (itos (f ((1, 10), 20) + f ((5, 2), 9) + f ((9, 9), 9)))`)
	dis := prog.Disassemble()
	if !strings.Contains(dis, "popn") {
		t.Fatalf("expected unwind popn in trampolines:\n%s", dis)
	}
}

func TestEntryHasNoFreeVariables(t *testing.T) {
	prog := compileSrc(t, `let x = 1 in x + x`)
	entry := prog.Blocks[prog.Entry]
	if hasOp(entry, bytecode.OpFree) {
		t.Fatal("entry block must not reference free variables")
	}
}

func TestCompilerHeapFootprint(t *testing.T) {
	// Compilation allocates its IR on the simulated heap: a nontrivial
	// module must allocate well more than its source size.
	m := testMutator()
	src := strings.Repeat("let x = (1, [2, 3], \"abc\") in\n", 50) + "0"
	before := m.BytesAllocated
	if _, err := Compile(m, src); err != nil {
		t.Fatal(err)
	}
	allocated := m.BytesAllocated - before
	if allocated < int64(4*len(src)) {
		t.Fatalf("compiler allocated only %d bytes for %d bytes of source", allocated, len(src))
	}
	if m.LogWrites == 0 && m.BarrierFastSkips == 0 {
		t.Fatal("code emission produced no write-barrier traffic (neither log entries nor fast-path skips)")
	}
}

// TestEmitSteadyStateAllocatesNothing: emitting into an open block touches
// only the block's inline pending bytes and the simulated heap. The buffer's
// rare doublings reuse the shared scratch once it has grown, so over a long
// run the Go allocation count per instruction is zero.
func TestEmitSteadyStateAllocatesNothing(t *testing.T) {
	m := testMutator()
	c := &Compiler{m: m}
	c.size() // what an empty parse sizes: the one block
	m.Roots.Register(c)
	defer m.Roots.Unregister(c)
	b := c.newBlockBuf("hot")
	for i := 0; i < 1000; i++ {
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: int32(i)})
	}
	if got := testing.AllocsPerRun(1000, func() {
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: 7})
	}); got != 0 {
		t.Fatalf("emit made %v Go allocations per instruction", got)
	}
	code := make([]bytecode.Instr, b.n)
	if blk := b.assemble(m, code); blk.Code[999].A != 999 || blk.Code[b.n-1].A != 7 {
		t.Fatalf("buffer lost instructions: %v ... %v", blk.Code[999], blk.Code[b.n-1])
	}
}

// TestLiteralPoolIndexedInFirstSeenOrder compiles a module with 2000
// distinct string literals, each used twice: the pool keeps first-seen
// order and every occurrence carries its literal's index.
func TestLiteralPoolIndexedInFirstSeenOrder(t *testing.T) {
	const n = 2000
	var src strings.Builder
	src.WriteString("(")
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "\"lit%d\";\n", i)
		}
	}
	src.WriteString("0)")
	prog := compileSrc(t, src.String())
	if len(prog.Strings) != n {
		t.Fatalf("pool has %d literals, want %d", len(prog.Strings), n)
	}
	for i, s := range prog.Strings {
		if want := fmt.Sprintf("lit%d", i); s != want {
			t.Fatalf("pool[%d] = %q, want %q", i, s, want)
		}
	}
	seen := 0
	for _, ins := range prog.Blocks[prog.Entry].Code {
		if ins.Op == bytecode.OpConstStr {
			if want := int32(seen % n); ins.A != want {
				t.Fatalf("occurrence %d carries index %d, want %d", seen, ins.A, want)
			}
			seen++
		}
	}
	if seen != 2*n {
		t.Fatalf("saw %d literal loads, want %d", seen, 2*n)
	}
}
