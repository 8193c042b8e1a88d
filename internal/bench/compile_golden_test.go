package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

var updateCompileGolden = flag.Bool("update-compile-golden", false,
	"rewrite testdata/compile_golden.txt from the current compiler")

// compileGoldenReps compiles every source this many times into one runtime,
// retaining the loaded code, so later compiles run against live data, an
// advanced log and whatever the earlier compiles left registered.
const compileGoldenReps = 20

// TestCompileSimulatedIdentity pins everything the simulation can observe of
// lang.Compile: the emitted program, the clock, every charge account, the
// pause count and the raw heap image. A host-side change to the compiler (Go
// allocation, scratch reuse, how tokens reach the parser) must leave every
// cell untouched; a cell that moves means a simulated-heap allocation, a Step
// charge or their order changed.
func TestCompileSimulatedIdentity(t *testing.T) {
	type source struct{ name, text string }
	sources := []source{{"prelude", lang.Prelude + "0"}}
	for _, name := range []string{"huffman", "life", "queens", "sieve"} {
		text, err := os.ReadFile(filepath.Join("..", "..", "examples", "miniml", name+".ml"))
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{name, lang.Prelude + string(text)})
	}
	comp := Comp(Scale{CompModules: 3, CompReps: 1}).(*compWorkload)
	for i, text := range comp.sources[:3] {
		sources = append(sources, source{fmt.Sprintf("module%d", i), text})
	}

	var got strings.Builder
	for _, src := range sources {
		for _, cfg := range []rig.Collector{rig.RT, rig.SC} {
			line, err := compileGoldenCell(src.text, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", src.name, cfg.Name, err)
			}
			fmt.Fprintf(&got, "%s %s %s\n", src.name, cfg.Name, line)
		}
	}

	checkGolden(t, filepath.Join("testdata", "compile_golden.txt"), *updateCompileGolden, got.String())
}

// checkGolden compares a golden table test's output with the committed file
// line by line, so a failure names each cell that moved; with update set it
// rewrites the file instead.
func checkGolden(t *testing.T, path string, update bool, got string) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

func compileGoldenCell(src string, cfg rig.Collector) (string, error) {
	rt, err := rig.New(rig.Config{Collector: cfg, Params: PaperParams()[0], OldSemiBytes: 8 << 20})
	if err != nil {
		return "", err
	}
	m := rt.Mutator
	loaded := &loadedCode{segs: make([]heap.Value, retainedModules)}
	m.Roots.Register(loaded)

	var progHash uint64
	for rep := 0; rep < compileGoldenReps; rep++ {
		prog, err := lang.Compile(m, src)
		if err != nil {
			return "", err
		}
		h := programHash(prog)
		if rep > 0 && h != progHash {
			return "", fmt.Errorf("rep %d emitted a different program", rep)
		}
		progHash = h
		n := 0
		for _, b := range prog.Blocks {
			n += len(b.Code)
		}
		if err := loaded.load(m, prog, n); err != nil {
			return "", err
		}
	}

	return fmt.Sprintf("prog=%016x %s", progHash, goldenState(m.Clock, rt.GC, heapImageHash(rt.Heap))), nil
}

// goldenState renders what every golden cell pins of a finished run: the
// clock, the pause count, a hash of the heap and every charge account.
func goldenState(clk *simtime.Clock, gc core.Collector, heapHash uint64) string {
	var line strings.Builder
	fmt.Fprintf(&line, "now=%d pauses=%d heap=%016x accounts=", clk.Now(), len(gc.Pauses().Pauses), heapHash)
	for i, d := range clk.Breakdown() {
		if i > 0 {
			line.WriteByte(',')
		}
		fmt.Fprintf(&line, "%d", d)
	}
	return line.String()
}

// programHash is an FNV-1a of every block's name and encoded code, then the
// literal pool, with lengths mixed in so boundaries cannot shift unnoticed.
func programHash(prog *bytecode.Program) uint64 {
	h := fnv.New64a()
	var enc [bytecode.EncodedSize]byte
	fmt.Fprintf(h, "entry=%d blocks=%d;", prog.Entry, len(prog.Blocks))
	for _, b := range prog.Blocks {
		fmt.Fprintf(h, "%d:%s:%d;", len(b.Name), b.Name, len(b.Code))
		for _, ins := range b.Code {
			ins.EncodeInto(enc[:], 0)
			h.Write(enc[:])
		}
	}
	for _, s := range prog.Strings {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	return h.Sum64()
}

// heapImageHash hashes the allocated words of the nursery and the current
// old space, and where each space's allocation pointer stands. Pointers are
// arena indices, so the raw image is deterministic.
func heapImageHash(h *heap.Heap) uint64 {
	f := fnv.New64a()
	var w [8]byte
	for _, s := range []*heap.Space{&h.Nursery, h.OldFrom()} {
		fmt.Fprintf(f, "%s:%d;", s.Name, s.Next-s.Lo)
		for idx := s.Lo; idx < s.Next; idx++ {
			for i := range w {
				w[i] = byte(uint64(h.Word(idx)) >> (8 * i))
			}
			f.Write(w[:])
		}
	}
	return f.Sum64()
}
