// Replay: the paper's §4.2 measurement methodology, end to end. The
// real-time collector runs once and records a script of exactly when it
// flipped and how much allocation space it returned; a stop-and-copy
// collector then replays those policy decisions on the identical program.
// With flips and allocation amounts synchronized, the difference in copied
// bytes is the latent garbage (table 3), and the elapsed difference is pure
// mechanism cost — not policy variation.
package main

import (
	"fmt"
	"log"

	"repligc"
)

const program = `
fun build n acc = if n = 0 then acc else build (n - 1) ((n * n) :: acc) in
fun sum l acc = case l of [] => acc | x :: r => sum r ((acc + x) mod 1000003) in
let window = array 64 0 in
fun iterate k total =
  if k = 0 then total
  else (aset window (k mod 64) (build 400 []);
        iterate (k - 1) ((total + sum (aget window ((k * 31) mod 64)) 0) mod 1000003)) in
print ("checksum " ^ itos (iterate 4000 0) ^ "\n")
`

func main() {
	// Pass 1: real-time collector, recording its flip script.
	script := &repligc.Script{}
	rt, err := repligc.New(repligc.Options{Record: script, CopyLimitBytes: 24 << 10})
	if err != nil {
		log.Fatal(err)
	}
	rtOut, err := rt.CompileAndRun(program)
	if err != nil {
		log.Fatal(err)
	}
	rt.Finish()

	// Pass 2: stop-and-copy, replaying the recorded script.
	sc, err := repligc.New(repligc.Options{Collector: "sc-mods", Replay: script})
	if err != nil {
		log.Fatal(err)
	}
	scOut, err := sc.CompileAndRun(program)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(rtOut)
	if rtOut != scOut {
		log.Fatalf("outputs diverged: %q vs %q", rtOut, scOut)
	}

	fmt.Printf("recorded script: %d minor flips\n", script.Len())
	fmt.Println(rt.StatsSummary())
	fmt.Println(sc.StatsSummary())

	// With synchronized flips, compare copy volumes at the last common
	// flip: the difference is the latent garbage of table 3.
	rtFlips := rt.GC.Stats().FlipCopied
	scFlips := sc.GC.Stats().FlipCopied
	n := len(rtFlips)
	if len(scFlips) < n {
		n = len(scFlips)
	}
	if n > 0 {
		g := rtFlips[n-1] - scFlips[n-1]
		fmt.Printf("latent garbage after %d synchronized flips: %.1f KB (%.2f%% of stop-and-copy volume)\n",
			n, float64(g)/1024, 100*float64(g)/float64(scFlips[n-1]))
	}
	fmt.Printf("mechanism cost: rt elapsed %v vs sc elapsed %v (%+.1f%%)\n",
		rt.Clock.Now(), sc.Clock.Now(),
		100*(float64(rt.Clock.Now())-float64(sc.Clock.Now()))/float64(sc.Clock.Now()))
}
