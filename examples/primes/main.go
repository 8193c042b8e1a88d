// Primes: the paper's first benchmark — a prime sieve in a lazy style
// (thunk streams), allocation-heavy with almost no survivors — run under
// the real-time collector, with the pause-time histogram of figure 5
// printed for this single run.
package main

import (
	"fmt"
	"log"

	"repligc"
	"repligc/internal/simtime"
)

const sieve = `
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
print ("sum of first 300 primes: " ^ itos (take 300 (sieve (from 2)) 0) ^ "\n")
`

func main() {
	rt, err := repligc.New(repligc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := rt.CompileAndRun(sieve)
	if err != nil {
		log.Fatal(err)
	}
	rt.Finish()
	fmt.Print(out)
	fmt.Println(rt.StatsSummary())

	hist := simtime.NewHistogram(5*simtime.Millisecond, 0, 100*simtime.Millisecond)
	hist.AddAll(rt.GC.Pauses().Durations())
	fmt.Print(hist.Render("pause-time histogram (5 ms bins)"))
}
