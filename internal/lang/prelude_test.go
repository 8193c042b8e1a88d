package lang

import (
	"strings"
	"testing"

	"repligc/internal/vm"
)

func runPrelude(t *testing.T, src string) string {
	t.Helper()
	m := testMutator()
	prog, err := Compile(m, Prelude+src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	machine := vm.New(m, prog)
	machine.MaxSteps = 100_000_000
	if err := machine.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return machine.Output.String()
}

func TestPreludeListFunctions(t *testing.T) {
	cases := []struct{ src, want string }{
		{`print (itos (length [5, 6, 7]))`, "3"},
		{`print (itos (suml (range 1 11)))`, "55"},
		{`print (itos (suml (map (fn x => x * x) [1, 2, 3])))`, "14"},
		{`print (itos (suml (filterl (fn x => x mod 2 = 0) (range 0 10))))`, "20"},
		{`print (itos (foldl (fn a => fn x => a * x) 1 [2, 3, 4]))`, "24"},
		{`print (itos (foldr (fn x => fn a => x - a) 0 [10, 4]))`, "6"},
		{`print (joinl "," (itoslist (rev [1, 2, 3])))`, "3,2,1"},
		{`print (joinl "-" (itoslist (append [1] [2, 3])))`, "1-2-3"},
		{`print (itos (nth [9, 8, 7] 1))`, "8"},
		{`print (joinl "" (itoslist (take 2 [4, 5, 6])))`, "45"},
		{`print (joinl "" (itoslist (drop 2 [4, 5, 6])))`, "6"},
		{`if member 3 [1, 2, 3] then print "y" else print "n"`, "y"},
		{`if all (fn x => x > 0) [1, 2] andalso not (exists (fn x => x > 5) [1, 2]) then print "ok" else print "no"`, "ok"},
		{`print (itos (suml (map (fn p => fst p * snd p) (zip [1, 2] [10, 20]))))`, "50"},
		{`print (itos (suml (tabulate 5 (fn i => i * i))))`, "30"},
	}
	for _, c := range cases {
		if got := runPrelude(t, c.src); got != c.want {
			t.Errorf("%s => %q, want %q", c.src, got, c.want)
		}
	}
}

func TestPreludeSort(t *testing.T) {
	got := runPrelude(t, `print (joinl "," (itoslist (msort (fn a => fn b => a <= b) [5, 1, 4, 2, 3])))`)
	if got != "1,2,3,4,5" {
		t.Fatalf("msort => %q", got)
	}
	desc := runPrelude(t, `print (joinl "," (itoslist (msort (fn a => fn b => a >= b) [5, 1, 4])))`)
	if desc != "5,4,1" {
		t.Fatalf("msort desc => %q", desc)
	}
}

func TestPreludeArithmetic(t *testing.T) {
	got := runPrelude(t, `print (itos (gcd 48 36 + pow 2 10 + min 3 5 + max 3 5 + abs (~7)))`)
	if got != "1051" { // 12 + 1024 + 3 + 5 + 7
		t.Fatalf("got %q", got)
	}
}

func TestPreludeArraysAndRefs(t *testing.T) {
	got := runPrelude(t, `
let a = afromlist [3, 1, 2] in
let c = ref 0 in
(afill a 9;
 incr c; incr c; decr c;
 print (itos (suml (atolist a) + !c)))`)
	if got != "28" { // 27 + 1
		t.Fatalf("got %q", got)
	}
}

func TestPreludeStrings(t *testing.T) {
	if got := runPrelude(t, `print (strrep "ab" 3)`); got != "ababab" {
		t.Fatalf("strrep => %q", got)
	}
	if got := runPrelude(t, `println "x"`); got != "x\n" {
		t.Fatalf("println => %q", got)
	}
}

func TestPreludeFutures(t *testing.T) {
	got := runPrelude(t, `print (itos (suml (parmap (fn x => x * x) (range 1 6))))`)
	if got != "55" {
		t.Fatalf("parmap => %q", got)
	}
}

func TestPreludeCompilesStandalone(t *testing.T) {
	m := testMutator()
	prog, err := Compile(m, Prelude+`0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) < 30 {
		t.Fatalf("prelude produced only %d blocks", len(prog.Blocks))
	}
	if !strings.Contains(prog.Disassemble(), "closure") {
		t.Fatal("prelude bytecode missing closures")
	}
}
