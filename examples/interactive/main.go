// Interactive: the paper's motivating scenario — "smoothly tracking a
// mouse in an interactive graphics application requires pause times of
// 50 milliseconds or less" (§1, citing Card, Moran & Newell).
//
// This example simulates an interactive session at the allocation level,
// using the mutator API directly rather than MiniML: every frame allocates
// a burst of short-lived event records and updates a heap-resident scene
// graph (an array of chained scene nodes, mutated through the write
// barrier). Several megabytes stay live, so the stop-and-copy baseline's
// major collections blow far past the 50 ms deadline; the real-time
// collector's pauses stay at the budget set by L.
package main

import (
	"fmt"
	"log"

	"repligc"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// app holds the mutator's registers: just two root slots, like a real
// runtime. The scene window itself is a heap array.
type app struct {
	window repligc.Value // heap array of scene-chain heads
	tmp    repligc.Value
}

func (a *app) VisitRoots(v core.RootVisitor) {
	v(&a.window)
	v(&a.tmp)
}

const (
	windowSlots = 2048
	frames      = 20000
	deadline    = 50 * simtime.Millisecond
)

// frame allocates one frame's worth of event and scene data.
func frame(m *repligc.Mutator, a *app, n int) {
	// A burst of short-lived event records...
	for i := 0; i < 300; i++ {
		ev := m.MustAlloc(heap.KindRecord, 3)
		m.Init(ev, 0, heap.FromInt(int64(n)))
		m.Init(ev, 1, heap.FromInt(int64(i)))
		m.Init(ev, 2, heap.Nil)
		m.Step(8)
	}
	// ...plus one retained scene node chained onto a window slot. The
	// store into the window array goes through the write barrier: it is
	// exactly the kind of old→new pointer the mutation log exists for.
	slot := n % windowSlots
	a.tmp = m.Get(a.window, slot)
	node := m.MustAlloc(heap.KindRecord, 64)
	m.Init(node, 0, heap.FromInt(int64(n)))
	m.Init(node, 1, a.tmp)
	for i := 2; i < 64; i++ {
		m.Init(node, i, heap.FromInt(int64(n*i)))
	}
	m.Set(a.window, slot, node)
	a.tmp = heap.Nil
	// Periodically drop a chain so the scene stays a few MB.
	if n%13 == 0 {
		m.Set(a.window, (slot+windowSlots/2)%windowSlots, heap.Nil)
	}
	m.Step(40)
}

func run(name string, rt *repligc.Runtime) {
	a := &app{}
	rt.Mutator.Roots.Register(a)
	a.window = rt.Mutator.MustAlloc(heap.KindArray, windowSlots)
	for n := 0; n < frames; n++ {
		frame(rt.Mutator, a, n)
	}
	rt.Finish()

	missed := 0
	for _, p := range rt.GC.Pauses().Pauses {
		if p.Length > deadline {
			missed++
		}
	}
	rec := rt.GC.Pauses()
	fmt.Printf("%-14s frames=%d pauses=%d p50=%v p99=%v max=%v deadline-misses=%d\n",
		name, frames, len(rec.Pauses), rec.Percentile(50), rec.Percentile(99), rec.Max(), missed)
}

func main() {
	// L = 80 KB keeps the real-time collector's work budget safely inside
	// the 50 ms frame deadline.
	rt, err := repligc.New(repligc.Options{CopyLimitBytes: 80 << 10})
	if err != nil {
		log.Fatal(err)
	}
	run("real-time", rt)

	sc, err := repligc.New(repligc.Options{Collector: "sc"})
	if err != nil {
		log.Fatal(err)
	}
	run("stop-and-copy", sc)
}
