package lang

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
)

// fuzzSeeds is the committed seed corpus of both fuzz targets: the inputs of
// the lexer tests (good and bad), the census's stress shapes, the prelude and
// the bundled examples.
func fuzzSeeds(f *testing.F) {
	for _, s := range seedSources(f) {
		f.Add(s)
	}
}

func seedSources(tb testing.TB) []string {
	srcs := []string{
		`let x = 42 in x + y`,
		"fun func iff in int andalso andalsoo",
		`=> = <> <= < >= > :: := ! ~ ^`,
		"0 7 1234567890", "99999999999999999999999",
		`"hello" "a\nb" "tab\there" "q\"q" "back\\slash"`,
		`"unterminated`, `"bad \q escape"`, `"trailing \`,
		"#1 #23", "#", "#x", "#0",
		`1 (* comment *) 2 (* nested (* inner *) outer *) 3`, "(* unterminated",
		"a\n  b", "$", "`", ": ", "@", "",
		`case [(1, "a\tb")] of [] => 0 | (n, s) :: _ => n`,
		Prelude + "0",
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "miniml", "*.ml"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no example programs found: %v", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(text), Prelude+string(text))
	}
	// The census's stress shapes, each meeting one bound exactly: many
	// identifiers and many string literals, each one distinct; a list pattern
	// whose failure sites and elements are all pending at once; a case whose
	// arms' end jumps are; and functions nested deep, curried and in groups.
	var ids, strs, pat, arms, fns, funs strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&ids, "let v%d = %d in ", i, i)
		fmt.Fprintf(&strs, "\"s%d\"; ", i)
	}
	ids.WriteString("0")
	pat.WriteString("case [0] of [0")
	arms.WriteString("case 0 of _ => 0")
	for i := 1; i < 100; i++ {
		fmt.Fprintf(&pat, ", %d", i)
		fmt.Fprintf(&arms, " | _ => %d", i)
	}
	pat.WriteString("] => 0")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&fns, "fn x%d => ", i)
		fmt.Fprintf(&funs, "fun f%d a b c = case (a, b) of (0, [x]) => x | _ => f%d (a - 1) b c and g%d d = d in ", i, i, i)
	}
	fns.WriteString("x0 + x20 + x39")
	funs.WriteString("f0 1 [2] 3")
	srcs = append(srcs, ids.String(), "("+strs.String()+"0)", pat.String(), arms.String(), fns.String(), funs.String())
	return srcs
}

// checkSized fails t for every buffer that outgrew the size its census bound
// gave it.
func checkSized(t *testing.T, sized []Sized) {
	t.Helper()
	for _, s := range sized {
		if s.Reached > s.Bound {
			t.Errorf("%s reached %d, past the census bound %d", s.Name, s.Reached, s.Bound)
		}
	}
}

// TestCensusBoundsEveryBuffer compiles the prelude, every example and the
// stress shapes: no census-sized buffer outgrows its size.
func TestCensusBoundsEveryBuffer(t *testing.T) {
	for _, src := range seedSources(t) {
		m := testMutator()
		_, sized, err := CompileSized(m, src)
		var perr *Error
		if err != nil && !errors.As(err, &perr) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		checkSized(t, sized)
	}
}

// FuzzLexStream checks the token stream the parser reads: lexing into an
// array the prelude's tokens filled yields LexAll's error and tokens, read
// one at a time the way the parser does and TEOF again past the end, and
// the census is the recount of those tokens' kinds.
func FuzzLexStream(f *testing.F) {
	fuzzSeeds(f)
	prelude, _, err := lex(Prelude, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := LexAll(src)
		toks, c, err := lex(src, slices.Clone(prelude))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("lex error %v, LexAll error %v", err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(toks) != len(want) {
			t.Fatalf("lexed %d tokens into a filled array, LexAll %d", len(toks), len(want))
		}
		p := &Parser{toks: toks}
		for i := 0; i <= len(want); i++ {
			if got, w := p.next(), want[min(i, len(want)-1)]; got != w {
				t.Fatalf("token %d: the parser read %+v, LexAll %+v", i, got, w)
			}
		}
		var recount census
		for _, w := range want {
			switch w.Kind {
			case TIdent:
				recount.idents++
			case TString:
				recount.strs++
			case TFun, TAnd, TCase, TBar, TLBrack, TLParen, TComma, TSemi:
				recount.elems++
			}
		}
		if c != recount {
			t.Fatalf("census %+v, LexAll's tokens hold %+v", c, recount)
		}
	})
}

// sizedMutator is a small heap under stop-and-copy with an old semispace of
// old bytes; at a few megabytes deep inputs run out, at a few dozen
// kilobytes an ordinary function does.
func sizedMutator(old int64) *core.Mutator {
	h := heap.New(heap.Config{NurseryBytes: 32 << 10, NurseryCapBytes: 256 << 10, OldSemiBytes: old})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	m.AttachGC(stopcopy.New(h, stopcopy.Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 256 << 10}))
	return m
}

// FuzzCompile requires Compile to end, for any input, in a program, a
// positioned *Error or the typed out-of-memory error, with the handle stack
// balanced and no census-sized buffer grown past its size. The heap is small,
// so deep inputs reach the OOM path. Each input is compiled twice, on a cold
// compiler and then through Compile's spare, which the inputs before it
// warmed, each on a fresh heap: the program, the error and the simulated
// clock must be equal.
func FuzzCompile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("bounds the recursion depth and the time per input")
		}
		m, warm := sizedMutator(2<<20), sizedMutator(2<<20)
		prog, sized, err := CompileSized(m, src)
		checkSized(t, sized)
		var perr *Error
		switch {
		case err == nil:
			if prog == nil || len(prog.Blocks) == 0 {
				t.Fatal("no error and no program")
			}
		case errors.As(err, &perr), core.IsOOM(err):
		default:
			t.Fatalf("untyped error %T: %v", err, err)
		}
		if depth := m.HandleMark(); depth != 0 {
			t.Fatalf("handle stack left at depth %d", depth)
		}
		wprog, werr := Compile(warm, src)
		if !reflect.DeepEqual(wprog, prog) || fmt.Sprint(werr) != fmt.Sprint(err) || warm.Clock.Now() != m.Clock.Now() {
			t.Fatalf("warm compile gave %v at %v, cold %v at %v", werr, warm.Clock.Now(), err, m.Clock.Now())
		}
	})
}
