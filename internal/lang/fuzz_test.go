package lang

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
)

// fuzzSeeds is the committed seed corpus of both fuzz targets: the inputs of
// the lexer tests (good and bad), the prelude and the bundled examples.
func fuzzSeeds(f *testing.F) {
	for _, s := range []string{
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
	} {
		f.Add(s)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "miniml", "*.ml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example programs found: %v", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
		f.Add(Prelude + string(text))
	}
}

// FuzzLexStream checks the parser's token path against the reference: the
// counting pre-pass reports LexAll's length and error, and pulling tokens
// one at a time the way the parser does yields LexAll's sequence.
func FuzzLexStream(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := LexAll(src)
		n, err := countTokens(src)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("countTokens error %v, LexAll error %v", err, wantErr)
		}
		if n != len(want) {
			t.Fatalf("countTokens = %d, LexAll produced %d tokens", n, len(want))
		}
		if wantErr != nil {
			return
		}
		p := &Parser{lex: *NewLexer(src)}
		p.next()
		for i, w := range want {
			if got := p.next(); got != w {
				t.Fatalf("token %d: streamed %+v, LexAll %+v", i, got, w)
			}
		}
		if got := p.next(); got.Kind != TEOF {
			t.Fatalf("stream continues past end of input with %+v", got)
		}
	})
}

// FuzzCompile requires Compile to end, for any input, in a program, a
// positioned *Error or the typed out-of-memory error, with the handle stack
// balanced. The heap is small, so deep inputs reach the OOM path.
func FuzzCompile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("bounds the recursion depth and the time per input")
		}
		h := heap.New(heap.Config{NurseryBytes: 32 << 10, NurseryCapBytes: 256 << 10, OldSemiBytes: 2 << 20})
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		m.AttachGC(stopcopy.New(h, stopcopy.Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 256 << 10}))
		prog, err := Compile(m, src)
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
	})
}
