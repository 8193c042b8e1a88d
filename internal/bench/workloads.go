// Package bench implements the paper's evaluation: the three benchmark
// workloads (Primes, Comp, Sort — §4.1), the configuration matrix over the
// parameters N, O and L (§4.2), the policy record/replay methodology, and
// the experiment runners that regenerate every table and figure of §4.
package bench

import (
	"fmt"
	"strings"

	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/vm"
)

// Workload is one benchmark program.
type Workload interface {
	// Name is the paper's benchmark name.
	Name() string
	// Run executes the workload through the mutator and returns a
	// deterministic result summary (used to check that every collector
	// configuration computes the same thing).
	Run(m *core.Mutator) (string, error)
}

// Scale sizes the workloads. The paper's runs allocate gigabytes over
// minutes of 1993-hardware time; these defaults allocate tens of megabytes,
// preserving every ratio that matters (nursery and copy-limit sizes are the
// paper's own, so collection counts stay high).
type Scale struct {
	PrimesCount int     // primes to produce
	SortSize    int     // list length to sort
	SortDepth   int     // futures fan-out depth
	CompModules int     // generated modules per repetition
	CompReps    int     // corpus repetitions
	ServeMs     float64 // simulated milliseconds of serving traffic (schema /5)
}

// DefaultScale is used by the full experiment suite.
func DefaultScale() Scale {
	return Scale{PrimesCount: 600, SortSize: 30000, SortDepth: 4, CompModules: 12, CompReps: 40, ServeMs: 3000}
}

// QuickScale is used by tests.
func QuickScale() Scale {
	return Scale{PrimesCount: 60, SortSize: 2500, SortDepth: 2, CompModules: 4, CompReps: 30, ServeMs: 800}
}

// ---------------------------------------------------------------- Primes

// primesSource is the paper's Primes benchmark: a prime sieve written in a
// lazy style (explicit thunk streams) and run by the MiniML interpreter —
// the same double level of interpretation as the paper's "simple lazy
// language ... interpreted by an SML program". Streams are non-memoising,
// so the workload allocates at a very high rate and performs (almost) no
// mutation, and few objects survive collection.
const primesSource = `
fun from n = fn u => (n, from (n + 1)) in
fun filter p s = fn u =>
  let pr = s () in
  (case pr of (x, rest) =>
    if p x then (x, filter p rest)
    else (filter p rest) ()) in
fun sieve s = fn u =>
  let pr = s () in
  (case pr of (x, rest) =>
    (x, sieve (filter (fn y => (y mod x) <> 0) rest))) in
fun take k s acc =
  if k = 0 then acc
  else let pr = s () in
       (case pr of (x, rest) => take (k - 1) rest (acc + x)) in
let total = take %COUNT% (sieve (from 2)) 0 in
print ("primes-sum " ^ itos total ^ "\n")
`

// Primes returns the Primes workload.
func Primes(s Scale) Workload {
	src := strings.ReplaceAll(primesSource, "%COUNT%", fmt.Sprint(s.PrimesCount))
	return &vmWorkload{name: "Primes", src: src}
}

// ------------------------------------------------------------------ Sort

// sortSource is the paper's Sort benchmark: a futures-based parallel merge
// sort built on threads and synchronising variables. The pseudo-random
// input generator mutates an integer ref on every draw and the work queue
// counters mutate more — "Sort does more mutation than a typical SML
// program and it creates a large amount of live data."
const sortSource = `
let seed = ref 123456789 in
let draws = ref 0 in
let cmps = ref 0 in
fun rnd u =
  (seed := ((!seed * 1103515245) + 12345) mod 1073741824;
   draws := !draws + 1;
   !seed mod 1000000) in
fun build n acc = if n = 0 then acc else build (n - 1) (rnd () :: acc) in
fun split l a b = case l of [] => (a, b) | x :: r => split r (x :: b) a in
fun revapp a b = case a of [] => b | x :: r => revapp r (x :: b) in
fun mergei a b acc =
  case a of
    [] => revapp acc b
  | x :: xs =>
      (case b of
         [] => revapp acc a
       | y :: ys =>
           (cmps := !cmps + 1;
            if x <= y then mergei xs b (x :: acc) else mergei a ys (y :: acc))) in
fun merge a b = mergei a b [] in
fun msort l =
  case l of
    [] => []
  | x :: r =>
      (case r of
         [] => l
       | _ => let p = split l [] [] in merge (msort (#1 p)) (msort (#2 p))) in
fun future f = let sv = newsv () in (spawn (fn u => putsv sv (f ())); sv) in
fun pmsort d l =
  if d = 0 then msort l
  else case l of
    [] => []
  | x :: r =>
      (case r of
         [] => l
       | _ =>
           let p = split l [] [] in
           let other = future (fn u => pmsort (d - 1) (#1 p)) in
           let mine = pmsort (d - 1) (#2 p) in
           merge (takesv other) mine) in
let out = array %SIZE% 0 in
fun store l i = case l of [] => i | x :: r => (aset out i x; store r (i + 1)) in
fun checksum i acc =
  if i = alen out then acc
  else checksum (i + 1) ((acc + (aget out i) * (i + 1)) mod 1000000007) in
fun sorted i =
  if i + 1 >= alen out then true
  else aget out i <= aget out (i + 1) andalso sorted (i + 1) in
let input = build %SIZE% [] in
let result = pmsort %DEPTH% input in
let stored = store result 0 in
(if sorted 0 then print "sorted " else print "UNSORTED ";
 print ("checksum " ^ itos (checksum 0 0) ^ " draws " ^ itos (!draws)
        ^ " cmps " ^ itos (!cmps) ^ "\n"))
`

// Sort returns the Sort workload.
func Sort(s Scale) Workload {
	src := strings.ReplaceAll(sortSource, "%SIZE%", fmt.Sprint(s.SortSize))
	src = strings.ReplaceAll(src, "%DEPTH%", fmt.Sprint(s.SortDepth))
	return &vmWorkload{name: "Sort", src: src}
}

// vmWorkload compiles and runs a MiniML source.
type vmWorkload struct {
	name string
	src  string
}

func (w *vmWorkload) Name() string { return w.name }

func (w *vmWorkload) Run(m *core.Mutator) (string, error) {
	prog, err := lang.Compile(m, w.src)
	if err != nil {
		return "", fmt.Errorf("%s: compile: %w", w.name, err)
	}
	machine := vm.New(m, prog)
	machine.MaxSteps = 2_000_000_000
	if err := machine.Run(); err != nil {
		return machine.Output.String(), fmt.Errorf("%s: %w", w.name, err)
	}
	return machine.Output.String(), nil
}

// ------------------------------------------------------------------ Comp

// compWorkload is the paper's Comp benchmark: the compiler compiling a
// substantial body of source. The MiniML compiler's tokens, AST records,
// interned symbol strings, scope chains and emitted code buffers all live
// on the simulated heap, so repeated compilation reproduces the compiler
// workload shape: moderate allocation, higher survival, live data
// fluctuating with compilation phases, and many byte mutations from code
// emission and backpatching.
type compWorkload struct {
	sources []string
	reps    int
}

// loadedCode is the compiler session's retained state: the "loaded" code
// segments of previously compiled modules, like a compiler that keeps its
// compilation units in memory. It is a GC root source; the retained
// megabytes are what give Comp its substantial, slowly-varying live data
// (and its long stop-and-copy major pauses).
type loadedCode struct {
	segs []heap.Value
	next int
}

func (l *loadedCode) VisitRoots(v core.RootVisitor) {
	for i := range l.segs {
		v(&l.segs[i])
	}
}

// retainedModules bounds the loaded-code ring.
const retainedModules = 24

// Comp returns the Comp workload: a deterministic generated corpus plus the
// other two benchmarks' own sources (the compiler compiling the benchmark
// suite, in the spirit of the SML/NJ compiler compiling a portion of
// itself). The corpus mixes a few large modules with several small ones so
// live data fluctuates with compilation phases, as the paper observed —
// the megabyte-scale ASTs of the large modules are what give the
// stop-and-copy baseline its long major pauses on this benchmark.
func Comp(s Scale) Workload {
	w := &compWorkload{reps: s.CompReps}
	for i := 0; i < s.CompModules; i++ {
		defs := 48 + 16*(i%3)
		if i%4 == 0 {
			defs = 80 + 20*(i%3) // a large module: the compiler holds a few hundred KB live
		}
		w.sources = append(w.sources, GenerateModule(i, defs))
	}
	w.sources = append(w.sources,
		strings.ReplaceAll(primesSource, "%COUNT%", "10"),
		strings.ReplaceAll(strings.ReplaceAll(sortSource, "%SIZE%", "10"), "%DEPTH%", "1"),
		lang.Prelude+"0", // the standard library is part of the corpus
	)
	return w
}

func (w *compWorkload) Name() string { return "Comp" }

func (w *compWorkload) Run(m *core.Mutator) (string, error) {
	loaded := &loadedCode{segs: make([]heap.Value, retainedModules)}
	m.Roots.Register(loaded)
	blocks, instrs := 0, 0
	for r := 0; r < w.reps; r++ {
		for i, src := range w.sources {
			prog, err := lang.Compile(m, src)
			if err != nil {
				return "", fmt.Errorf("Comp: module %d: %w", i, err)
			}
			blocks += len(prog.Blocks)
			n := 0
			for _, b := range prog.Blocks {
				n += len(b.Code)
			}
			instrs += n
			if err := loaded.load(m, prog, n); err != nil {
				return "", fmt.Errorf("Comp: module %d: %w", i, err)
			}
		}
	}
	return fmt.Sprintf("compiled blocks=%d instrs=%d\n", blocks, instrs), nil
}

// load writes the module's encoded code into a fresh heap segment and
// retains it in the ring, evicting the oldest module's segment.
func (l *loadedCode) load(m *core.Mutator, prog *bytecode.Program, instrs int) error {
	if instrs == 0 {
		return nil
	}
	slot := l.next
	seg, err := m.Alloc(heap.KindBytes, instrs*bytecode.EncodedSize)
	if err != nil {
		return err
	}
	l.segs[slot] = seg
	l.next = (l.next + 1) % len(l.segs)
	var chunk [16 * bytecode.EncodedSize]byte
	off, used := 0, 0
	flush := func() {
		if used > 0 {
			// Re-read the segment from the ring slot: the stores can
			// trigger collections, and the slot is a root.
			m.SetByteRange(l.segs[slot], off, chunk[:used])
			off += used
			used = 0
		}
	}
	for _, b := range prog.Blocks {
		for _, ins := range b.Code {
			ins.EncodeInto(chunk[:], used)
			used += bytecode.EncodedSize
			if used == len(chunk) {
				flush()
			}
		}
	}
	flush()
	m.Step(instrs)
	return nil
}

// GenerateModule produces a deterministic MiniML module of roughly n
// top-level function groups exercising every language construct the
// compiler knows: recursion, closures, cases with nested patterns, tuples,
// lists, refs, arrays and string building.
func GenerateModule(seed, n int) string {
	var b strings.Builder
	rng := uint64(seed)*2654435761 + 12345
	next := func(k int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % k
	}
	fmt.Fprintf(&b, "(* generated module %d *)\n", seed)
	for i := 0; i < n; i++ {
		switch next(5) {
		case 0:
			fmt.Fprintf(&b, "fun f%d_%d x = if x <= 1 then 1 else x * f%d_%d (x - %d) in\n",
				seed, i, seed, i, 1+next(2))
		case 1:
			fmt.Fprintf(&b, "fun g%d_%d l = case l of [] => 0 | x :: r => x + g%d_%d r in\n",
				seed, i, seed, i)
		case 2:
			fmt.Fprintf(&b, "fun h%d_%d p = case p of (a, b) => a * %d + b in\n",
				seed, i, 2+next(7))
		case 3:
			fmt.Fprintf(&b, "let v%d_%d = [%d, %d, %d, %d] in\n",
				seed, i, next(100), next(100), next(100), next(100))
		default:
			fmt.Fprintf(&b, "let c%d_%d = fn x => (x + %d, x * %d, \"m%d\") in\n",
				seed, i, next(50), 1+next(9), i)
		}
	}
	// A body that references a sample of the definitions so nothing is
	// trivially dead and the module runs if executed.
	fmt.Fprintf(&b, "let acc = ref 0 in\n")
	fmt.Fprintf(&b, "fun touch%d k = (acc := !acc + k; !acc) in\n", seed)
	fmt.Fprintf(&b, "print (itos (touch%d %d) ^ \"\\n\")\n", seed, next(1000))
	return b.String()
}
