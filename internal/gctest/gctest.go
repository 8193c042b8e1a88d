// Package gctest provides a shadow-model torture driver for validating
// garbage collectors. The driver performs a pseudo-random sequence of
// allocations, mutations and root drops through a core.Mutator while
// mirroring every operation in a shadow graph of its own. At any
// collector-quiescent point the simulated heap can be verified against the
// shadow graph: if the collector lost an object, corrupted a replica,
// missed a logged mutation or left a stale pointer after a flip, the
// comparison fails.
package gctest

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"repligc/internal/core"
	"repligc/internal/heap"
)

// shadow mirrors a heap.Value in four bytes: 0 is the zero word of a slot
// nothing has stored into yet (heap.Nil), v > 0 the integer v−1 and v < 0
// node −v−1. The driver stores only integers in [0, 2^20).
type shadow int32

func intShadow(i int64) shadow   { return shadow(i + 1) }
func nodeShadow(id int32) shadow { return -shadow(id) - 1 }

// node is the shadow of one heap object: its kind and where its payload
// lies, n words of the driver's word slab for a pointer-bearing kind and n
// bytes of its byte slab otherwise.
type node struct {
	kind       heap.Kind
	chunk, off int32
	n          int32
}

// chunkLen is the length of a slab chunk.
const chunkLen = 1 << 16

// slab is storage in chunks of chunkLen elements. A run never spans two
// chunks, and a run longer than a chunk gets a chunk of its own. alloc
// appends, and growing never moves what the slab holds; only the driver's
// compaction does, sliding the live runs down in the order they were made.
// Chunks it empties stay beyond len(chunks) as spares. A fresh run is zeroed.
type slab[T any] struct{ chunks [][]T }

// alloc reserves a run of n elements and returns where it starts: in the
// last chunk, in the first spare if that has room, or in a new chunk.
func (s *slab[T]) alloc(n int) (chunk, off int32) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last])+n > cap(s.chunks[last]) {
		if last+1 < cap(s.chunks) && cap(s.chunks[:last+2][last+1]) >= n {
			s.chunks = s.chunks[:last+2]
		} else {
			s.chunks = append(s.chunks, make([]T, 0, max(n, chunkLen)))
		}
		last++
	}
	c := s.chunks[last]
	s.chunks[last] = c[:len(c)+n]
	clear(s.chunks[last][len(c):])
	return int32(last), int32(len(c))
}

// cursor is where a slide writes next: a chunk and an offset in it.
type cursor struct{ chunk, off int32 }

// slide moves run, which lies at or after the cursor, to the cursor or, when
// the cursor's chunk has no room for it, to the start of the first later chunk
// that has, and returns where it now lies. Runs slide in the order they were
// made, so the cursor never passes a run's source: at worst the run stays
// where it is.
func (s *slab[T]) slide(at *cursor, run []T) (chunk, off int32) {
	n := int32(len(run))
	for at.off+n > int32(cap(s.chunks[at.chunk])) {
		s.chunks[at.chunk] = s.chunks[at.chunk][:at.off]
		at.chunk, at.off = at.chunk+1, 0
	}
	c := s.chunks[at.chunk]
	copy(c[at.off:cap(c)], run)
	chunk, off = at.chunk, at.off
	at.off += n
	return chunk, off
}

// truncate ends the slab at the cursor a slide left and keeps the chunks
// after it, emptied, as spares.
func (s *slab[T]) truncate(at cursor) {
	if len(s.chunks) == 0 {
		return
	}
	spares := s.chunks[at.chunk+1:]
	for i := range spares {
		spares[i] = spares[i][:0]
	}
	s.chunks[at.chunk] = s.chunks[at.chunk][:at.off]
	s.chunks = s.chunks[:at.chunk+1]
}

// rootSource exposes the driver's roots to the collector.
type rootSource struct {
	slots []heap.Value
}

func (r *rootSource) VisitRoots(v core.RootVisitor) {
	for i := range r.slots {
		v(&r.slots[i])
	}
}

// Driver runs the torture workload. Its shadow graph is bounded by what was
// live at its last compaction, not by what the driver allocated: Step
// compacts it as it goes.
type Driver struct {
	M   *core.Mutator
	rng *rand.Rand

	roots  *rootSource
	shadow []shadow // parallel to roots.slots

	// The shadow graph: the nodes the driver allocated, and their payloads.
	// Nodes come one at a time, so node i is element i%chunkLen of chunk
	// i/chunkLen. Once the nodes made since the last compaction reach
	// max(kept, chunkLen), Step compacts: the graph keeps only the nodes
	// reachable from the root shadows, renumbered in order. So it holds at
	// most kept + max(kept, chunkLen) nodes, about 2·live + chunkLen while
	// live holds steady, not what the driver allocated.
	nodes      slab[node]
	words      slab[shadow]
	bytes      slab[byte]
	made, kept int // nodes made since the last compaction, and kept by it

	// compact's scratch: a mark bit per node, the marks before each word of
	// marks, and the marked nodes not yet scanned.
	marks []uint64
	ranks []int32
	stack []int32

	// Ops counts operations performed.
	Ops int

	// Inject, when set, runs before every operation. A fault-injection
	// plan (internal/faultinject) uses it to shrink spaces, force
	// collections or spike the mutation log at deterministic points; any
	// error it returns aborts Step with that error.
	Inject func() error

	// LargeEvery, when positive, makes every LargeEvery-th operation allocate
	// one large object — alternately a pointer array of LargeWords to
	// 2·LargeWords slots and a byte buffer of as many words — and every
	// LargeEvery/16-th operation store into the large objects still held,
	// near both ends of each, so that a collector copying one of them over
	// several pauses sees stores on both sides of its copy cursor. Zero leaves
	// the operation stream exactly as it is without the option. LargeWords
	// zero means 4096; 1 to 3 are raised to 4, the fewest words whose both
	// ends the stores can pick from.
	LargeEvery int
	LargeWords int
	large      *rootSource       // the last few large objects; registered at the first one
	largeSh    [largeHeld]shadow // parallel to large.slots; 0 until filled
	nlarge     int
}

// NewDriver attaches a torture driver to m, seeding its PRNG with seed so
// runs are reproducible and identical across collector configurations.
func NewDriver(m *core.Mutator, seed int64) *Driver {
	d := &Driver{M: m, rng: rand.New(rand.NewSource(seed)), roots: &rootSource{}}
	m.Roots.Register(d.roots)
	return d
}

// newNode allocates the shadow of a k object of n words or bytes and returns
// it with its zeroed payload: words for a pointer-bearing kind, else bytes.
func (d *Driver) newNode(k heap.Kind, n int) (shadow, []shadow, []byte) {
	nd := node{kind: k, n: int32(n)}
	if k.HasPointers() {
		nd.chunk, nd.off = d.words.alloc(n)
	} else {
		nd.chunk, nd.off = d.bytes.alloc(n)
	}
	c, off := d.nodes.alloc(1)
	d.nodes.chunks[c][off] = nd
	d.made++
	ws, bs := d.payload(&nd)
	return nodeShadow(c*chunkLen + off), ws, bs
}

// node returns the node that s, a node shadow, names.
func (d *Driver) node(s shadow) *node { return d.nodeAt(int32(-s - 1)) }

func (d *Driver) nodeAt(id int32) *node { return &d.nodes.chunks[id/chunkLen][id%chunkLen] }

// payload returns nd's words or bytes; the other is nil.
func (d *Driver) payload(nd *node) ([]shadow, []byte) {
	if nd.kind.HasPointers() {
		return d.words.chunks[nd.chunk][nd.off:][:nd.n], nil
	}
	return nil, d.bytes.chunks[nd.chunk][nd.off:][:nd.n]
}

// pickRoot returns a random root index, or -1 when none exist.
func (d *Driver) pickRoot() int {
	if len(d.roots.slots) == 0 {
		return -1
	}
	return d.rng.Intn(len(d.roots.slots))
}

// objectKinds are the kinds allocObject draws from.
var objectKinds = [...]heap.Kind{heap.KindRecord, heap.KindRef, heap.KindArray, heap.KindString, heap.KindBytes, heap.KindClosure}

// allocObject allocates a random object and roots it. Heap exhaustion is
// returned, not panicked: the exhaustion-matrix tests drive the driver into
// OOM on purpose and assert the error is typed.
func (d *Driver) allocObject() error {
	k := objectKinds[d.rng.Intn(len(objectKinds))]
	switch k {
	case heap.KindString, heap.KindBytes:
		n := d.rng.Intn(40)
		sh, _, b := d.newNode(k, n)
		for i := range b {
			b[i] = byte(d.rng.Intn(256))
		}
		var p heap.Value
		var err error
		if k == heap.KindString {
			p, err = d.M.AllocString(b)
			if err != nil {
				return err
			}
		} else {
			p, err = d.M.AllocBytes(n)
			if err != nil {
				return err
			}
			// Fill via the (logged) byte-mutation path.
			for i, c := range b {
				d.M.SetByte(p, i, c)
			}
		}
		d.addRoot(p, sh)
	default:
		n := 1 + d.rng.Intn(6)
		// Choose initial contents before allocating: each randomValue may
		// reference existing roots, and allocation itself can trigger a
		// collection that rewrites root slots, so values are re-read from
		// the root table after allocation.
		type pick struct {
			rootIdx int // -1: use v
			v       int64
		}
		var picks [6]pick
		for i := range picks[:n] {
			if j := d.pickRoot(); j >= 0 && d.rng.Intn(3) != 0 {
				picks[i] = pick{rootIdx: j}
			} else {
				picks[i] = pick{rootIdx: -1, v: d.rng.Int63n(1 << 20)}
			}
		}
		p, err := d.M.Alloc(k, n)
		if err != nil {
			return err
		}
		sh, words, _ := d.newNode(k, n)
		for i, pk := range picks[:n] {
			if pk.rootIdx >= 0 {
				d.M.Init(p, i, d.roots.slots[pk.rootIdx])
				words[i] = d.shadow[pk.rootIdx]
			} else {
				d.M.Init(p, i, heap.FromInt(pk.v))
				words[i] = intShadow(pk.v)
			}
		}
		d.addRoot(p, sh)
	}
	return nil
}

// largeHeld is how many large objects the driver keeps alive at a time.
const largeHeld = 3

// allocLarge allocates the next large object — a pointer array with every
// 64th slot initialised to a root or an integer, or a zeroed byte buffer —
// into the ring of held ones and into the ordinary root table (from where
// other objects come to reference it, and where it is dropped like any root).
func (d *Driver) allocLarge() error {
	if d.large == nil {
		d.large = &rootSource{slots: make([]heap.Value, largeHeld)}
		d.M.Roots.Register(d.large)
	}
	base := d.LargeWords
	if base <= 0 {
		base = 4096
	}
	base = max(base, 4)
	n := base + d.rng.Intn(base)
	k := d.nlarge % largeHeld
	d.nlarge++
	if d.nlarge%2 == 0 {
		p, err := d.M.AllocBytes(n * heap.BytesPerWord)
		if err != nil {
			return err
		}
		d.large.slots[k] = p
		d.largeSh[k], _, _ = d.newNode(heap.KindBytes, n*heap.BytesPerWord)
	} else {
		p, err := d.M.Alloc(heap.KindArray, n)
		if err != nil {
			return err
		}
		d.large.slots[k] = p
		var words []shadow
		d.largeSh[k], words, _ = d.newNode(heap.KindArray, n)
		for i := 0; i < n; i += 64 {
			if j := d.pickRoot(); j >= 0 && d.rng.Intn(2) == 0 {
				d.M.Init(p, i, d.roots.slots[j])
				words[i] = d.shadow[j]
			} else {
				v := d.rng.Int63n(1 << 20)
				d.M.Init(p, i, heap.FromInt(v))
				words[i] = intShadow(v)
			}
		}
	}
	d.addRoot(d.large.slots[k], d.largeSh[k])
	return nil
}

// hammerLarge stores into every held large object near its start and near
// its end: word stores of the newest root (most often a nursery pointer) and
// of integers into arrays, range and single-byte stores into buffers. Nothing
// here allocates, so no pointer read from a root slot can go stale.
func (d *Driver) hammerLarge() {
	if d.large == nil {
		return
	}
	for k, p := range d.large.slots {
		if p == heap.Nil {
			continue
		}
		nd := d.node(d.largeSh[k])
		words, bytes := d.payload(nd)
		if nd.kind == heap.KindArray {
			n := len(words)
			lo, hi := d.rng.Intn(n/4), n-1-d.rng.Intn(n/4)
			if last := len(d.roots.slots) - 1; last >= 0 {
				d.M.Set(p, lo, d.roots.slots[last])
				words[lo] = d.shadow[last]
			}
			v := d.rng.Int63n(1 << 20)
			d.M.Set(p, hi, heap.FromInt(v))
			words[hi] = intShadow(v)
			continue
		}
		n := len(bytes)
		const span = 21 // crosses at least two word boundaries at any offset
		for _, off := range [...]int{d.rng.Intn(n / 4), n - span - d.rng.Intn(n/4)} {
			data := bytes[off : off+span]
			for i := range data {
				data[i] = byte(d.rng.Intn(256))
			}
			d.M.SetByteRange(p, off, data)
		}
		i, b := d.rng.Intn(n), byte(d.rng.Intn(256))
		d.M.SetByte(p, i, b)
		bytes[i] = b
	}
}

func (d *Driver) addRoot(p heap.Value, s shadow) {
	d.roots.slots = append(d.roots.slots, p)
	d.shadow = append(d.shadow, s)
}

// mutate rewrites a random slot of a random mutable rooted object.
func (d *Driver) mutate() {
	i := d.pickRoot()
	if i < 0 || d.shadow[i] >= 0 {
		return
	}
	p := d.roots.slots[i]
	nd := d.node(d.shadow[i])
	words, bytes := d.payload(nd)
	//gclint:dispatch
	switch nd.kind {
	case heap.KindRecord, heap.KindClosure, heap.KindString:
		// Immutable kinds cannot be mutated; a new kind added to the heap
		// must be classified here explicitly (gclint rule "exhaustive").
		return
	case heap.KindRef, heap.KindArray:
		if len(words) == 0 {
			return
		}
		slot := d.rng.Intn(len(words))
		// Pick the value; pointer picks are re-read from the root table at
		// store time (no allocation can intervene here, but stay uniform).
		if j := d.pickRoot(); j >= 0 && d.rng.Intn(2) == 0 {
			d.M.Set(p, slot, d.roots.slots[j])
			words[slot] = d.shadow[j]
		} else {
			v := d.rng.Int63n(1 << 20)
			d.M.Set(p, slot, heap.FromInt(v))
			words[slot] = intShadow(v)
		}
	case heap.KindBytes:
		if len(bytes) == 0 {
			return
		}
		if d.rng.Intn(3) == 0 {
			// Coalesced range store (the compiler's code-emission path).
			off := d.rng.Intn(len(bytes))
			data := bytes[off : off+1+d.rng.Intn(len(bytes)-off)]
			for i := range data {
				data[i] = byte(d.rng.Intn(256))
			}
			d.M.SetByteRange(p, off, data)
			return
		}
		slot := d.rng.Intn(len(bytes))
		b := byte(d.rng.Intn(256))
		d.M.SetByte(p, slot, b)
		bytes[slot] = b
	}
}

// dropRoot forgets a random root (making a subgraph potentially garbage).
func (d *Driver) dropRoot() {
	if len(d.roots.slots) <= 4 {
		return
	}
	i := d.pickRoot()
	last := len(d.roots.slots) - 1
	d.roots.slots[i] = d.roots.slots[last]
	d.shadow[i] = d.shadow[last]
	d.roots.slots = d.roots.slots[:last]
	d.shadow = d.shadow[:last]
}

// maxRoots bounds the driver's root table. Real mutators have small root
// sets (registers, shallow operand stacks); an unbounded table would make
// root scanning dominate every pause and distort pause-time measurements.
const maxRoots = 512

// Step performs n random operations. It stops at the first error — either
// from the Inject hook or from an allocation that exhausted the heap — so
// the driver's shadow graph stays consistent with everything that actually
// happened.
func (d *Driver) Step(n int) error {
	for k := 0; k < n; k++ {
		if d.made >= max(d.kept, chunkLen) {
			d.compact()
		}
		d.Ops++
		if d.Inject != nil {
			if err := d.Inject(); err != nil {
				return err
			}
		}
		if d.LargeEvery > 0 {
			if d.Ops%d.LargeEvery == 0 {
				if err := d.allocLarge(); err != nil {
					return err
				}
			}
			if d.Ops%max(d.LargeEvery/16, 1) == 0 {
				d.hammerLarge()
			}
		}
		switch r := d.rng.Intn(10); {
		case r < 5:
			if err := d.allocObject(); err != nil {
				return err
			}
		case r < 8:
			d.mutate()
		default:
			d.dropRoot()
		}
		for len(d.roots.slots) > maxRoots {
			d.dropRoot()
		}
		d.M.Step(3)
	}
	return nil
}

// compact slides the shadow graph down to the nodes reachable from the root
// shadows, keeping their order: a live node's new id is its rank among the
// live ones, and every node shadow the roots and live payloads hold is
// rewritten to it. Nothing simulated moves: operations pick by root index,
// Fingerprint walks the heap and Verify maps by heap value.
func (d *Driver) compact() {
	n := d.kept + d.made
	d.marks = append(d.marks[:0], make([]uint64, (n+63)/64)...)
	for _, s := range d.shadow {
		d.mark(s)
	}
	for _, s := range d.largeSh {
		d.mark(s)
	}
	for len(d.stack) > 0 {
		id := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		words, _ := d.payload(d.nodeAt(id))
		for _, s := range words {
			d.mark(s)
		}
	}
	d.ranks = append(d.ranks[:0], make([]int32, len(d.marks))...)
	live := int32(0)
	for w, m := range d.marks {
		d.ranks[w] = live
		live += int32(bits.OnesCount64(m))
	}
	var nc, wc, bc cursor
	for w, m := range d.marks {
		for ; m != 0; m &= m - 1 {
			id := int32(w*64 + bits.TrailingZeros64(m))
			nd := d.nodeAt(id)
			words, bytes := d.payload(nd)
			if nd.kind.HasPointers() {
				for i, s := range words {
					words[i] = d.renumber(s)
				}
				nd.chunk, nd.off = d.words.slide(&wc, words)
			} else {
				nd.chunk, nd.off = d.bytes.slide(&bc, bytes)
			}
			d.nodes.slide(&nc, d.nodes.chunks[id/chunkLen][id%chunkLen:][:1])
		}
	}
	d.nodes.truncate(nc)
	d.words.truncate(wc)
	d.bytes.truncate(bc)
	for i, s := range d.shadow {
		d.shadow[i] = d.renumber(s)
	}
	for k, s := range d.largeSh {
		d.largeSh[k] = d.renumber(s)
	}
	d.made, d.kept = 0, int(live)
}

// mark marks the node s names, if it names one not yet marked, and queues it.
func (d *Driver) mark(s shadow) {
	if s >= 0 {
		return
	}
	id := int32(-s - 1)
	if bit := uint64(1) << (id % 64); d.marks[id/64]&bit == 0 {
		d.marks[id/64] |= bit
		d.stack = append(d.stack, id)
	}
}

// renumber maps a shadow to what compact makes it: a node shadow to the
// node's rank among the marked ones, anything else to itself.
func (d *Driver) renumber(s shadow) shadow {
	if s >= 0 {
		return s
	}
	id := int32(-s - 1)
	return nodeShadow(d.ranks[id/64] + int32(bits.OnesCount64(d.marks[id/64]&(1<<(id%64)-1))))
}

// Verify walks the heap from the driver's roots in lockstep with the shadow
// graph and reports the first discrepancy. It must be called at a point
// where the collector is quiescent for the *mutator's* view to be the
// from-space originals — which is every point, thanks to the from-space
// invariant; verification therefore also exercises that invariant
// mid-collection.
func (d *Driver) Verify() error {
	seen := spareSeen.Swap(nil)
	if seen == nil {
		seen = new(heap.Visits)
	}
	err := d.verify(seen)
	seen.Clear()
	spareSeen.Store(seen)
	return err
}

// spareSeen is Verify's visit table, parked between walks as
// core.Mutator.GraphDigest parks its own: a walk takes it or, when another
// walk holds it, makes a fresh one, and clears and parks it on every return,
// the first discrepancy's included. A panic drops it.
var spareSeen atomic.Pointer[heap.Visits]

// verify is Verify's walk over a table that starts empty.
func (d *Driver) verify(seen *heap.Visits) error {
	for i, p := range d.roots.slots {
		if err := d.verifyValue(p, d.shadow[i], seen); err != nil {
			return fmt.Errorf("root %d: %w", i, err)
		}
	}
	if d.large != nil {
		for k, p := range d.large.slots {
			if d.largeSh[k] == 0 {
				continue // ring slot not filled yet
			}
			if err := d.verifyValue(p, d.largeSh[k], seen); err != nil {
				return fmt.Errorf("large object %d: %w", k, err)
			}
		}
	}
	return nil
}

func (d *Driver) verifyValue(v heap.Value, s shadow, seen *heap.Visits) error {
	switch {
	case s == 0:
		if v != heap.Nil {
			return fmt.Errorf("want nil, got %v", v)
		}
		return nil
	case s > 0:
		if !v.IsInt() || v.Int() != int64(s)-1 {
			return fmt.Errorf("want int %d, got %v", int64(s)-1, v)
		}
		return nil
	}
	nd := d.node(s)
	if !v.IsPtr() {
		return fmt.Errorf("want pointer to %v node, got %v", nd.kind, v)
	}
	id := uint32(-s - 1)
	if prev, ok := seen.Visit(v, id); ok {
		if prev != id {
			return fmt.Errorf("aliasing mismatch at %v", v)
		}
		return nil
	}

	hdr := d.M.Header(v)
	if hdr.Kind() != nd.kind {
		return fmt.Errorf("kind mismatch: heap %v, shadow %v", hdr.Kind(), nd.kind)
	}
	words, bytes := d.payload(nd)
	if !nd.kind.HasPointers() {
		if hdr.Len() != len(bytes) {
			return fmt.Errorf("byte length mismatch: heap %d, shadow %d", hdr.Len(), len(bytes))
		}
		for i, b := range bytes {
			if g := d.M.GetByte(v, i); g != b {
				return fmt.Errorf("byte %d mismatch: heap %d, shadow %d", i, g, b)
			}
		}
		return nil
	}
	if hdr.Len() != len(words) {
		return fmt.Errorf("length mismatch: heap %d, shadow %d", hdr.Len(), len(words))
	}
	for i, ws := range words {
		if err := d.verifyValue(d.M.Get(v, i), ws, seen); err != nil {
			return fmt.Errorf("%v slot %d: %w", hdr.Kind(), i, err)
		}
	}
	return nil
}

// Fingerprint produces a deterministic signature of the reachable graph for
// cross-collector differential comparison.
func (d *Driver) Fingerprint() uint64 {
	return d.M.GraphDigest(func(_ func(uint64), walk func(heap.Value)) {
		for _, p := range d.roots.slots {
			walk(p)
		}
		if d.large != nil {
			for _, p := range d.large.slots {
				walk(p)
			}
		}
	})
}
