package lang

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/simtime"
)

// parsed is what a compile's parse left to size the next steps by: the
// bounds its node counts and nesting depth give, and the two index lengths.
// Stale counts on a warm compiler show here even where the program does not
// move.
func parsed(c *Compiler) [8]int {
	blocks, ctxs, hs, defs, fails, jumps := c.p.bounds()
	return [8]int{blocks, ctxs, hs, defs, fails, jumps, len(c.p.litIdx.slots), len(c.syms.ids.slots)}
}

// compileBoth compiles src on a fresh mutator through Compile, on the spare
// that earlier compiles warmed, and on a second fresh mutator with a cold
// compiler, and fails t unless the two agree on the program, the error, the
// simulated clock and, where src lexes, what the parse left. It returns the
// cold compiler and its error.
func compileBoth(t *testing.T, old int64, src string) (*Compiler, error) {
	t.Helper()
	warm, cold := sizedMutator(old), sizedMutator(old)
	wp, werr := Compile(warm, src)
	wc := spare.Load()
	c := new(Compiler)
	cp, cerr := c.compile(cold, src)
	if !reflect.DeepEqual(wp, cp) || fmt.Sprint(werr) != fmt.Sprint(cerr) {
		t.Fatalf("%.40q: warm compile gave %v, %v; cold %v, %v", src, wp != nil, werr, cp != nil, cerr)
	}
	if w, c := warm.Clock.Now(), cold.Clock.Now(); w != c {
		t.Fatalf("%.40q: warm compile ends at %v of simulated time, cold at %v", src, w, c)
	}
	if _, _, lexErr := lex(src, nil); lexErr != nil {
		return c, cerr // the parse never began
	}
	if w, c := parsed(wc), parsed(c); w != c {
		t.Fatalf("%.40q: warm parse left %v, cold %v", src, w, c)
	}
	return c, cerr
}

// TestWarmCompileMatchesCold runs one sequence through the spare and on cold
// compilers. Each step leaves state the next must not read: literals before
// a module with none (the literal index), functions nested deep before a lex
// error and a parse error inside a nesting (node counts and depths), an
// out-of-memory compile halfway through a function (the compiler's depth,
// half-filled blocks), then every seed source — the prelude and the examples
// among them.
func TestWarmCompileMatchesCold(t *testing.T) {
	const roomy, tight = 16 << 20, 64 << 10
	steps := []struct {
		src  string
		old  int64
		want string // "" for a program, else the error's kind; "oom" inside a function
	}{
		{`let s = "a" ^ "b" in print (s ^ "c")`, roomy, ""},
		{`fun f x = fn y => fn z => x + y + z in f 1 2 3`, roomy, ""},
		{`fn a => fn b => $`, roomy, "lex"},
		{`fn a => fn b => (a b`, roomy, "parse"},
		{"fun f x = " + strings.Repeat("(x + 1) * ", 400) + "x in f 2", tight, "oom"},
		{`let x = 1 in x`, roomy, ""},
	}
	for _, s := range steps {
		c, err := compileBoth(t, s.old, s.src)
		kind := ""
		switch {
		case err == nil:
		case core.IsOOM(err) && c.depth > 1:
			kind = "oom"
		case func() bool { _, _, lexErr := lex(s.src, nil); return lexErr != nil }():
			kind = "lex"
		default:
			kind = "parse"
		}
		if kind != s.want {
			t.Fatalf("%.40q ended in %q (%v), want %q", s.src, kind, err, s.want)
		}
	}
	for _, src := range seedSources(t) {
		compileBoth(t, roomy, src)
	}
}

// pinSentinel is reached only through the root set of the mutator it is
// registered with. It is a few words long: a smaller pointer-free object
// may share a tiny-allocator block, whose finalizers need not run.
type pinSentinel struct{ _ [4]int64 }

func (*pinSentinel) VisitRoots(core.RootVisitor) {}

// TestParkedCompilerPinsNothing: once a compile's mutator is dropped, the
// spare compiler does not keep it, its heap or anything it reaches alive.
func TestParkedCompilerPinsNothing(t *testing.T) {
	freed := make(chan struct{})
	func() {
		m := testMutator()
		s := new(pinSentinel)
		runtime.SetFinalizer(s, func(*pinSentinel) { close(freed) })
		m.Roots.Register(s)
		if _, err := Compile(m, Prelude+`print "x"`); err != nil {
			t.Fatal(err)
		}
	}()
	if spare.Load() == nil {
		t.Fatal("Compile parked no compiler")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the last compile's mutator is still reachable once dropped: the spare compiler pins it")
}

// TestConcurrentCompiles: two goroutines, each compiling the prelude and
// every example on its own mutator, and a third parsing them, take and park
// the spare in turn; each program and each compile's simulated end equal
// those of the serial run, and each parse's literal pool the program's.
// make race runs it under the race detector.
func TestConcurrentCompiles(t *testing.T) {
	var srcs []string
	for _, src := range seedSources(t) {
		if _, err := Compile(testMutator(), src); err == nil {
			srcs = append(srcs, src)
		}
	}
	type result struct {
		prog *bytecode.Program
		at   simtime.Duration
	}
	run := func() []result {
		m := testMutator()
		out := make([]result, len(srcs))
		for i, src := range srcs {
			prog, err := Compile(m, src)
			if err != nil {
				t.Errorf("%.40q: %v", src, err)
			}
			out[i] = result{prog, m.Clock.Now()}
		}
		return out
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, got := range run() {
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%.40q compiled concurrently differs from the serial compile", srcs[i])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := testMutator()
		for i, src := range srcs {
			mark := m.HandleMark()
			_, lits, err := Parse(m, NewSymTab(m), src)
			m.PopHandles(mark)
			if err != nil || !reflect.DeepEqual(lits, want[i].prog.Strings) {
				t.Errorf("%.40q parsed concurrently: %v, literals %q, want %q", src, err, lits, want[i].prog.Strings)
			}
		}
	}()
	wg.Wait()
}

// TestParkedTokensEmpty: park clears the token array the parse read, so the
// spare keeps no token — and through its text no source — after a long
// module, after a parse error, after a lex error partway through, and after
// a short module that filled less of the array than the ones before.
func TestParkedTokensEmpty(t *testing.T) {
	for _, src := range []string{
		`fun f a b c d e g h = a + h in f 1 2 3 4 5 6 7`,
		`fun f a b c d = fn x => (a`,
		`fun f a b = a $`,
		`fun f a = a in f 1`,
	} {
		Compile(testMutator(), src)
		p := &spare.Load().p
		for i, tok := range p.toks[:cap(p.toks)] {
			if tok != (Token{}) {
				t.Fatalf("%.40q: the parked token array holds %v at %d", src, tok, i)
			}
		}
	}
}
