// Futures: the concurrency substrate of the paper's Sort benchmark —
// futures built from green threads and synchronising variables — used
// here to fan a computation out across threads while the replication
// collector runs incrementally underneath. The mutation-heavy profile
// (integer refs, sync-var fills) is exactly what exercises the mutation
// log's reapply machinery (the paper's CR cost, table 2).
package main

import (
	"fmt"
	"log"

	"repligc"
)

const program = `
fun future f = let sv = newsv () in (spawn (fn u => putsv sv (f ())); sv) in
fun force sv = takesv sv in
let counter = ref 0 in
fun work n seed acc =
  if n = 0 then acc
  else (counter := !counter + 1;
        work (n - 1) ((seed * 31 + n) mod 1000003) (seed :: acc)) in
fun sum l acc = case l of [] => acc | x :: r => sum r ((acc + x) mod 1000003) in
fun launch k =
  if k = 0 then []
  else future (fn u => sum (work 12000 k []) 0) :: launch (k - 1) in
fun collect fs acc =
  case fs of [] => acc | f :: r => collect r ((acc + force f) mod 1000003) in
let fs = launch 12 in
(print ("result " ^ itos (collect fs 0) ^ "\n");
 print ("work items " ^ itos (!counter) ^ "\n"))
`

func main() {
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
	st := rt.GC.Stats()
	fmt.Printf("mutation log: %d entries written, %d reapplied to replicas, %d flip updates\n",
		rt.Mutator.LogWrites, st.LogReapplied, st.FlipEntryUpdates)
}
