// Quickstart: build a real-time replication-collected runtime, run a
// MiniML program on it, and look at the pause-time profile — the paper's
// headline claim is that the maximum pause stays near the 50 ms target set
// by the copy limit L, no matter how much the program allocates.
package main

import (
	"fmt"
	"log"

	"repligc"
)

const program = `
fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
fun sum l = case l of [] => 0 | x :: r => x + sum r in
fun iterate k total =
  if k = 0 then total
  else iterate (k - 1) (total + sum (build 500 [])) in
print ("total " ^ itos (iterate 2000 0) ^ "\n")
`

func main() {
	// The paper's defaults: N = 0.2 MB nursery, O = 1 MB major threshold,
	// L = 100 KB copy limit per pause (about 50 ms at 2 MB/s copying).
	rt, err := repligc.New(repligc.Options{})
	if err != nil {
		log.Fatal(err)
	}

	out, err := rt.CompileAndRun(program)
	if err != nil {
		log.Fatal(err)
	}
	rt.Finish()
	fmt.Print(out)
	fmt.Println(rt.StatsSummary())

	// Compare with the stop-and-copy baseline on the identical program.
	sc, err := repligc.New(repligc.Options{Collector: "sc"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sc.CompileAndRun(program); err != nil {
		log.Fatal(err)
	}
	fmt.Println(sc.StatsSummary())

	fmt.Printf("\nmax pause: real-time %v vs stop-and-copy %v\n",
		rt.GC.Pauses().Max(), sc.GC.Pauses().Max())
}
