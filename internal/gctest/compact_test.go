package gctest

import (
	"fmt"
	"slices"
	"testing"
)

// twins steps two drivers on one seed and large-object setting through runs
// of ops[i] operations, compacting the second after each run, and verifies
// both there: compaction renumbers the shadow graph, so Verify is its oracle,
// and the heap, which it must not touch, must end the same under both. It
// returns the error that stopped both, if the heap ran out.
func twins(t *testing.T, seed int64, every, words int, ops []int) error {
	t.Helper()
	plain, _ := newDriver(tortureConfig, seed)
	packed, _ := newDriver(tortureConfig, seed)
	both := []*Driver{plain, packed}
	for _, d := range both {
		d.LargeEvery, d.LargeWords = every, words
	}
	for _, n := range ops {
		err0, err1 := plain.Step(n), packed.Step(n)
		if fmt.Sprint(err0) != fmt.Sprint(err1) {
			t.Fatalf("after %d operations the twins fail apart: %v and %v", plain.Ops, err0, err1)
		}
		if err0 != nil {
			return err0
		}
		packed.compact()
		for i, d := range both {
			if err := d.Verify(); err != nil {
				t.Fatalf("twin %d after %d operations: %v", i, d.Ops, err)
			}
		}
	}
	if p, q := plain.Fingerprint(), packed.Fingerprint(); p != q {
		t.Errorf("fingerprints %016x and %016x", p, q)
	}
	if p, q := plain.M.Clock.Now(), packed.M.Clock.Now(); p != q {
		t.Errorf("clocks %v and %v", p, q)
	}
	if plain.Ops != packed.Ops {
		t.Errorf("operations %d and %d", plain.Ops, packed.Ops)
	}
	return nil
}

// TestCompactTwin compacts one of two twin drivers every 97 operations, with
// and without large objects.
func TestCompactTwin(t *testing.T) {
	ops := make([]int, 20000/97)
	for i := range ops {
		ops[i] = 97
	}
	for _, every := range []int{0, 40} {
		t.Run(fmt.Sprintf("large%d", every), func(t *testing.T) {
			if err := twins(t, 1, every, 64, ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzDriverCompact: the input's first byte seeds the twins, the next two
// set LargeEvery and LargeWords, and each later byte is a run of operations
// after which one twin compacts. The third seed's byte buffers of over 8 192
// words take a slab chunk each, so its slides pass chunks too short for the
// next run.
func FuzzDriverCompact(f *testing.F) {
	f.Add([]byte{1, 0, 0, 96, 3, 250})
	f.Add([]byte{2, 40, 2, 10, 200, 3, 77})
	f.Add([]byte{3, 16, 230, 0, 0, 50, 255, 255})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		var ops []int
		for _, b := range in[3:min(len(in), 19)] {
			ops = append(ops, 1+int(b)*2)
		}
		twins(t, int64(in[0]), int(in[1]), int(in[2])*40, ops)
	})
}

// reachable counts the shadow nodes reachable from d's root shadows.
func reachable(d *Driver) int {
	seen := map[shadow]bool{}
	var visit func(s shadow)
	visit = func(s shadow) {
		if s >= 0 || seen[s] {
			return
		}
		seen[s] = true
		words, _ := d.payload(d.node(s))
		for _, w := range words {
			visit(w)
		}
	}
	for _, s := range d.shadow {
		visit(s)
	}
	for _, s := range d.largeSh {
		visit(s)
	}
	return len(seen)
}

// driverAfter is a driver seeded with seed after ops operations under the paper's
// parameters.
func driverAfter(t *testing.T, seed int64, ops int) *Driver {
	t.Helper()
	d, _ := newDriver(paperConfig, seed)
	if err := d.Step(ops); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCompactBound: the shadow graph holds what was live at its last
// compaction, not what was made. Through 600 000 operations the node slab
// never holds more than kept + max(kept, chunkLen) nodes, kept being the
// nodes the last compaction kept, and a compaction keeps exactly the nodes
// reachable from the roots. An append-only graph holds about three times
// what is reachable.
func TestCompactBound(t *testing.T) {
	d, _ := newDriver(paperConfig, 1)
	held := func() int {
		n := 0
		for _, c := range d.nodes.chunks {
			n += len(c)
		}
		return n
	}
	for d.Ops < 600000 {
		if err := d.Step(1000); err != nil {
			t.Fatal(err)
		}
		if n, most := held(), d.kept+max(d.kept, chunkLen); n > most {
			t.Fatalf("after %d operations the node slab holds %d nodes, want at most %d", d.Ops, n, most)
		}
	}
	d.compact()
	if n, live := held(), reachable(d); n != live || d.kept != live {
		t.Errorf("a compaction leaves %d nodes held and %d kept for %d reachable", n, d.kept, live)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompactGroup4 times one compaction of a torture driver's shadow
// graph in the state a member of the repository benchmark's group4 reaches:
// past 300 000 operations under the paper's parameters, with the compaction
// Step was about to make pending. Every iteration compacts a fresh copy of
// that graph.
func BenchmarkCompactGroup4(b *testing.B) {
	d, _ := newDriver(paperConfig, 1)
	for d.Ops < 300000 {
		if err := d.Step(1000); err != nil {
			b.Fatal(err)
		}
	}
	for d.made < max(d.kept, chunkLen) {
		if err := d.Step(1); err != nil {
			b.Fatal(err)
		}
	}
	nodes, words, bytes := d.nodes.clone(), d.words.clone(), d.bytes.clone()
	shadows, large, made, kept := slices.Clone(d.shadow), d.largeSh, d.made, d.kept
	b.ReportMetric(float64(kept+made), "nodes")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.nodes.restore(nodes)
		d.words.restore(words)
		d.bytes.restore(bytes)
		copy(d.shadow, shadows)
		d.largeSh, d.made, d.kept = large, made, kept
		b.StartTimer()
		d.compact()
	}
}

// clone copies the slab's chunks, each with its capacity.
func (s *slab[T]) clone() slab[T] {
	c := slab[T]{chunks: make([][]T, len(s.chunks))}
	for i, ch := range s.chunks {
		c.chunks[i] = append(make([]T, 0, cap(ch)), ch...)
	}
	return c
}

// restore makes the slab hold what src, a clone of it, holds, in the chunks
// the slab kept (a compaction keeps the ones it empties as spares).
func (s *slab[T]) restore(src slab[T]) {
	s.chunks = s.chunks[:len(src.chunks)]
	for i, ch := range src.chunks {
		s.chunks[i] = append(s.chunks[i][:0], ch...)
	}
}
