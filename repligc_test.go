package repligc_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repligc"
	"repligc/internal/rig"
)

var updateFacadeGolden = flag.Bool("update-facade-golden", false,
	"rewrite testdata/facade_golden.txt from the current facade constructors")

// TestFacadeSimulatedIdentity pins the absolute simulated outcome of runs
// built through New, the one door into the system that neither
// engine_golden.txt nor compile_golden.txt passes through: each cell runs
// queens.ml with the prelude and renders the clock, the pauses, the
// collector's counters and the output. A change to how a runtime is
// assembled must leave every line untouched.
func TestFacadeSimulatedIdentity(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "miniml", "queens.ml"))
	if err != nil {
		t.Fatal(err)
	}
	text := repligc.Prelude + string(src)
	script := &repligc.Script{}
	const n, o, l = 32 << 10, 64 << 10, 1 << 10
	cells := []struct {
		name string
		o    repligc.Options
	}{
		{"realtime", repligc.Options{}},
		{"realtime-no-incremental-minor", repligc.Options{Collector: "major-inc"}},
		// A tight cell reaches what the paper's 50 ms cell never does on
		// queens: major collections and nursery expansion.
		{"realtime-tight-default-heap", repligc.Options{NurseryBytes: n, MajorThresholdBytes: o, CopyLimitBytes: l}},
		{"stopcopy", repligc.Options{Collector: "sc"}},
		{"stopcopy-tight", repligc.Options{Collector: "sc", NurseryBytes: n, MajorThresholdBytes: o}},
		// The pair runs in this order: the replay consumes what the
		// recording cell left in script.
		{"realtime-recorded", repligc.Options{Record: script}},
		{"stopcopy-replayed", repligc.Options{Collector: "sc-mods", Replay: script}},
	}
	var got strings.Builder
	for _, c := range cells {
		rt, err := repligc.New(c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out, err := rt.CompileAndRun(text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := rt.Finish(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pauses := fnv.New64a()
		for _, p := range rt.GC.Pauses().Pauses {
			fmt.Fprintf(pauses, "%d,%d,%d,%d,%d,%d;", p.At, p.Length, p.Kind, p.Sync, p.CopiedB, p.LogProcN)
		}
		st := rt.GC.Stats()
		fmt.Fprintf(&got, "%s gc=%s now=%d alloc=%d logwrites=%d pauses=%d pausefnv=%016x stats=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d out=%q\n",
			c.name, rt.GC.Name(), rt.Clock.Now(), rt.Mutator.BytesAllocated, rt.Mutator.LogWrites,
			len(rt.GC.Pauses().Pauses), pauses.Sum64(),
			st.MinorCollections, st.MajorCollections, st.PauseCount, st.BytesCopiedMinor, st.BytesCopiedMajor,
			st.LogScanned, st.LogReapplied, st.FlipEntryUpdates, st.RootSlotUpdates, st.ForcedCompletion,
			st.NurseryExpansion, st.EmergencyCollections, out)
	}
	if script.Len() == 0 {
		t.Fatal("the recorded cell left an empty script; the replayed cell pins nothing")
	}

	path := filepath.Join("testdata", "facade_golden.txt")
	if *updateFacadeGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

func TestQuickstartFacade(t *testing.T) {
	rt, err := repligc.New(repligc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.CompileAndRun(`print ("6*7=" ^ itos (6 * 7) ^ "\n")`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "6*7=42\n" {
		t.Fatalf("output %q", out)
	}
	rt.Finish()
	if !strings.HasPrefix(rt.StatsSummary(), "rt:") {
		t.Errorf("summary: %s", rt.StatsSummary())
	}
}

func TestFacadeCollectsUnderPressure(t *testing.T) {
	rt, err := repligc.New(repligc.Options{
		NurseryBytes:        64 << 10,
		MajorThresholdBytes: 256 << 10,
		CopyLimitBytes:      16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.CompileAndRun(`
fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
fun sum l = case l of [] => 0 | x :: r => x + sum r in
fun loop k acc = if k = 0 then acc else loop (k - 1) (acc + sum (build 200 [])) in
print (itos (loop 500 0))`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "10050000" {
		t.Fatalf("output %q", out)
	}
	rt.Finish()
	st := rt.GC.Stats()
	if st.MinorCollections == 0 || st.MajorCollections == 0 {
		t.Fatalf("collections: %d minor, %d major", st.MinorCollections, st.MajorCollections)
	}
}

func TestStopCopyFacadeMatchesRealTime(t *testing.T) {
	prog := `
fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
print (itos (fib 18))`
	rt, _ := repligc.New(repligc.Options{})
	sc, _ := repligc.New(repligc.Options{Collector: "sc"})
	a, err := rt.CompileAndRun(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.CompileAndRun(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("outputs differ: %q vs %q", a, b)
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	rt, _ := repligc.New(repligc.Options{})
	if _, err := rt.CompileAndRun(`nonexistent_variable`); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestSampleProgramsRun(t *testing.T) {
	cases := []struct {
		file    string
		prelude bool
		want    string // substring of the expected output
	}{
		{"examples/miniml/sieve.ml", false, "2 3 5 7 11"},
		{"examples/miniml/queens.ml", true, "queens 8 -> 92"},
		{"examples/miniml/life.ml", true, "alive after 30 generations: 5"},
		{"examples/miniml/huffman.ml", true, "weighted code length: 13195"},
	}
	for _, c := range cases {
		src, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		text := string(src)
		if c.prelude {
			text = repligc.Prelude + text
		}
		rt, err := repligc.New(repligc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rt.CompileAndRun(text)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output %q missing %q", c.file, out, c.want)
		}
	}
}

// TestFacadeNamesEveryTableRow: the facade reaches every row of the
// collector table, and a run reports itself under the table's name.
func TestFacadeNamesEveryTableRow(t *testing.T) {
	const prog = `print (itos (6 * 7))`
	names := []string{""} // the empty name builds rt
	for _, c := range rig.Table {
		names = append(names, c.Name)
	}
	for _, name := range names {
		want := name
		if want == "" {
			want = rig.RT.Name
		}
		rt, err := repligc.New(repligc.Options{Collector: name})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if out, err := rt.CompileAndRun(prog); err != nil || out != "42" {
			t.Fatalf("%q: output %q, err %v", name, out, err)
		}
		if err := rt.Finish(); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s := rt.StatsSummary(); !strings.HasPrefix(s, want+":") {
			t.Errorf("%q: summary %q, want it to start with %q", name, s, want+":")
		}
	}

	if _, err := repligc.New(repligc.Options{Collector: "bogus"}); err == nil || !strings.Contains(err.Error(), rig.Names()) {
		t.Errorf("unknown name: err = %v, want one listing %s", err, rig.Names())
	}
	script := &repligc.Script{}
	for _, c := range []struct {
		o     repligc.Options
		field string
	}{
		{repligc.Options{Collector: "sc", Record: script}, "Record"},
		{repligc.Options{Collector: "rt", Replay: script}, "Replay"},
	} {
		if _, err := repligc.New(c.o); err == nil || !strings.Contains(err.Error(), "does not support "+c.field) {
			t.Errorf("%s with %s: err = %v, want a refusal naming %s", c.o.Collector, c.field, err, c.field)
		}
	}
}
