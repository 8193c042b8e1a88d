// Lowlatency: the paper's §6 future-work direction, realised — collection
// work interleaved with allocation (a copying tax) instead of discrete
// pauses, so the only stop-the-mutator events of any size are the atomic
// flips. Compare the pause profile against the pause-based real-time
// collector on the same allocation- and mutation-heavy program.
package main

import (
	"fmt"
	"log"

	"repligc"
	"repligc/internal/simtime"
)

const program = `
fun future f = let sv = newsv () in (spawn (fn u => putsv sv (f ())); sv) in
let counter = ref 0 in
fun build n acc =
  if n = 0 then acc
  else (counter := !counter + 1; build (n - 1) (n :: acc)) in
fun sum l acc = case l of [] => acc | x :: r => sum r (acc + x) in
fun job u = sum (build 4000 []) 0 in
fun launch k = if k = 0 then [] else future job :: launch (k - 1) in
fun collect fs acc = case fs of [] => acc | f :: r => collect r (acc + takesv f) in
print ("total " ^ itos (collect (launch 24) 0) ^ " mutations " ^ itos (!counter) ^ "\n")
`

func run(label string, opts repligc.Options) {
	rt, err := repligc.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	out, err := rt.CompileAndRun(program)
	if err != nil {
		log.Fatal(err)
	}
	rt.Finish()
	rec := rt.GC.Pauses()
	fmt.Print(out)
	fmt.Printf("%-12s pauses=%6d p50=%8v p99=%8v max=%8v elapsed=%v\n",
		label, len(rec.Pauses), rec.Percentile(50), rec.Percentile(99), rec.Max(), rt.Clock.Now())

	hist := simtime.NewHistogram(5*simtime.Millisecond, 0, 80*simtime.Millisecond)
	hist.AddAll(rec.Durations())
	fmt.Print(hist.Render("  pause histogram (5 ms bins)"))
	fmt.Println()
}

func main() {
	run("pause-based", repligc.Options{})
	run("interleaved", repligc.Options{Collector: "rt-conc"})
}
