package heap

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repligc/internal/rng"
)

func testHeap() *Heap {
	return New(Config{NurseryBytes: 1 << 16, NurseryCapBytes: 1 << 18, OldSemiBytes: 1 << 20})
}

func TestValueTagging(t *testing.T) {
	f := func(i int32) bool {
		v := FromInt(int64(i))
		return v.IsInt() && !v.IsPtr() && v.Int() == int64(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Nil.IsPtr() || Nil.IsInt() {
		t.Fatal("Nil must be neither pointer nor int")
	}
	if !FromBool(true).Bool() || FromBool(false).Bool() {
		t.Fatal("bool round trip failed")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := func(rawKind uint8, rawLen uint16) bool {
		k := Kind(rawKind % uint8(numKinds))
		n := int(rawLen)
		h := MakeHeader(k, n)
		return IsHeader(Value(h)) && h.Kind() == k && h.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderSizes(t *testing.T) {
	if got := MakeHeader(KindRecord, 3).SizeWords(); got != 4 {
		t.Fatalf("record[3] size = %d words, want 4", got)
	}
	if got := MakeHeader(KindBytes, 9).PayloadWords(); got != 2 {
		t.Fatalf("bytes[9] payload = %d words, want 2", got)
	}
	if got := MakeHeader(KindString, 0).SizeWords(); got != 1 {
		t.Fatalf("string[0] size = %d words, want 1", got)
	}
	if got := MakeHeader(KindRecord, 2).SizeBytes(); got != 24 {
		t.Fatalf("record[2] bytes = %d, want 24", got)
	}
}

func TestKindProperties(t *testing.T) {
	for _, k := range []Kind{KindRef, KindArray, KindBytes} {
		if !k.Mutable() {
			t.Errorf("%v should be mutable", k)
		}
	}
	for _, k := range []Kind{KindRecord, KindClosure, KindString} {
		if k.Mutable() {
			t.Errorf("%v should be immutable", k)
		}
	}
	if KindBytes.HasPointers() || KindString.HasPointers() {
		t.Error("byte kinds must not be scanned for pointers")
	}
	if !KindRecord.HasPointers() || !KindRef.HasPointers() {
		t.Error("word kinds must be scanned for pointers")
	}
}

func TestAllocAndAccess(t *testing.T) {
	h := testHeap()
	p, ok := h.AllocIn(&h.Nursery, KindRecord, 3)
	if !ok {
		t.Fatal("alloc failed")
	}
	if !h.Nursery.Contains(p) {
		t.Fatal("allocated object not in nursery")
	}
	hdr := h.HeaderOf(p)
	if hdr.Kind() != KindRecord || hdr.Len() != 3 {
		t.Fatalf("header = %v", hdr)
	}
	for i := 0; i < 3; i++ {
		if h.Load(p, i) != Nil {
			t.Fatalf("slot %d not zeroed", i)
		}
	}
	h.Store(p, 1, FromInt(42))
	if got := h.Load(p, 1); got.Int() != 42 {
		t.Fatalf("load = %v", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := testHeap()
	n := 0
	for {
		if _, ok := h.AllocIn(&h.Nursery, KindRecord, 7); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no allocations succeeded")
	}
	want := int(h.Nursery.LimitBytes() / (8 * BytesPerWord))
	if n != want {
		t.Fatalf("allocated %d objects, want %d", n, want)
	}
}

func TestByteAccess(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindBytes, 13)
	data := []byte("hello, world!")
	h.SetBytes(p, data)
	if got := string(h.Bytes(p)); got != "hello, world!" {
		t.Fatalf("bytes = %q", got)
	}
	h.StoreByte(p, 0, 'H')
	if h.LoadByte(p, 0) != 'H' {
		t.Fatal("StoreByte/LoadByte failed")
	}
	// Bytes must not disturb neighbours.
	if got := string(h.Bytes(p)); got != "Hello, world!" {
		t.Fatalf("bytes after poke = %q", got)
	}
}

func TestByteAccessProperty(t *testing.T) {
	h := testHeap()
	f := func(data []byte) bool {
		if len(data) > 200 {
			data = data[:200]
		}
		p, ok := h.AllocIn(&h.Nursery, KindBytes, len(data))
		if !ok {
			h.Nursery.Reset()
			p, _ = h.AllocIn(&h.Nursery, KindBytes, len(data))
		}
		for i, b := range data {
			h.StoreByte(p, i, b)
		}
		for i, b := range data {
			if h.LoadByte(p, i) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestByteRangesMatchByteLoop checks LoadBytes/StoreBytes (and Bytes and
// SetBytes on top of them) against the LoadByte/StoreByte loops they
// replaced, over every head alignment and lengths that leave no body, no
// head or no tail: equal reads, and an equal raw image after equal writes.
func TestByteRangesMatchByteLoop(t *testing.T) {
	const size = 64
	h, ref := testHeap(), testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindBytes, size)
	q, _ := ref.AllocIn(&ref.Nursery, KindBytes, size)
	r := rng.New(1)
	for off := 0; off < 2*BytesPerWord; off++ {
		for n := 0; off+n <= size; n++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(r.Next())
			}
			h.StoreBytes(p, off, data)
			for i, b := range data {
				ref.StoreByte(q, off+i, b)
			}
			lo, hi := p.index()-1, p.index()+size/BytesPerWord
			for w := lo; w < hi; w++ {
				if h.arena[w] != ref.arena[w] {
					t.Fatalf("StoreBytes(off %d, n %d): arena word %d = %#x, byte loop wrote %#x", off, n, w, h.arena[w], ref.arena[w])
				}
			}
			got, want := make([]byte, n), make([]byte, n)
			h.LoadBytes(p, off, got)
			for i := range want {
				want[i] = ref.LoadByte(q, off+i)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("LoadBytes(off %d, n %d) = %x, byte loop read %x", off, n, got, want)
			}
		}
	}
	whole := make([]byte, size)
	for i := range whole {
		whole[i] = ref.LoadByte(q, i)
	}
	if !bytes.Equal(h.Bytes(p), whole) {
		t.Fatalf("Bytes = %x, byte loop read %x", h.Bytes(p), whole)
	}
}

func TestForwarding(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindRecord, 2)
	h.Store(p, 0, FromInt(7))
	h.Store(p, 1, FromInt(8))

	replica, ok := h.CopyObject(p, h.OldFrom())
	if !ok {
		t.Fatal("copy failed")
	}
	if h.Load(replica, 0).Int() != 7 || h.Load(replica, 1).Int() != 8 {
		t.Fatal("replica contents differ")
	}
	if h.IsForwarded(p) {
		t.Fatal("copy must not forward by itself")
	}

	h.SetForward(p, replica)
	if !h.IsForwarded(p) {
		t.Fatal("not forwarded after SetForward")
	}
	if h.ForwardAddr(p) != replica {
		t.Fatal("forward address wrong")
	}
	// The original payload must remain readable: the from-space invariant
	// depends on non-destructive copying.
	if h.Load(p, 0).Int() != 7 {
		t.Fatal("original payload destroyed by forwarding")
	}
	// getheader follows the forwarding word.
	if hdr := h.HeaderOf(p); hdr.Kind() != KindRecord || hdr.Len() != 2 {
		t.Fatalf("HeaderOf(forwarded) = %v", hdr)
	}
	if h.IsForwarded(replica) {
		t.Fatal("the replica is forwarded too: p does not resolve to it")
	}
}

func TestForwardingChain(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindRef, 1)
	r1, _ := h.CopyObject(p, h.OldFrom())
	h.SetForward(p, r1)
	r2, _ := h.CopyObject(r1, h.OldTo())
	h.SetForward(r1, r2)
	if h.ForwardAddr(h.ForwardAddr(p)) != r2 || h.IsForwarded(r2) {
		t.Fatal("two-hop resolve failed")
	}
	if hdr := h.HeaderOf(p); hdr.Kind() != KindRef {
		t.Fatalf("two-hop header = %v", hdr)
	}
}

// TestForwardingCycleFails: HeaderOf follows at most the two hops a heap in
// order can hold, so a cycle of forwarding words panics instead of spinning.
func TestForwardingCycleFails(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindRef, 1)
	q, _ := h.AllocIn(&h.Nursery, KindRef, 1)
	h.SetWord(p.index()-1, q)
	h.SetWord(q.index()-1, p)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		h.HeaderOf(p)
	}()
	select {
	case r := <-done:
		if s, _ := r.(string); !strings.Contains(s, "longer than two hops") {
			t.Errorf("HeaderOf on a forwarding cycle panicked with %v, want the chain's invariant", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("HeaderOf still following a forwarding cycle after 10 s")
	}
}

func TestCopyObjectPanicsOnForwarded(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindRef, 1)
	r, _ := h.CopyObject(p, h.OldFrom())
	h.SetForward(p, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.CopyObject(p, h.OldFrom())
}

func TestSwapOld(t *testing.T) {
	h := testHeap()
	from, to := h.OldFrom(), h.OldTo()
	_, _ = h.AllocIn(to, KindRecord, 1)
	h.SwapOld()
	if h.OldFrom() != to || h.OldTo() != from {
		t.Fatal("swap did not exchange spaces")
	}
	if h.OldTo().UsedWords() != 0 {
		t.Fatal("discarded space not reset")
	}
	if h.OldFrom().UsedWords() == 0 {
		t.Fatal("survivor space lost its contents")
	}
}

// TestToSpaceMarks: a mark is a bit of one object of the to-space, set once,
// and ClearMarks empties them; the marks are the to-space role's, so an
// object at the same offset of the next to-space reads the same bit.
func TestToSpaceMarks(t *testing.T) {
	h := testHeap()
	a, _ := h.AllocIn(h.OldTo(), KindRecord, 1)
	b, _ := h.AllocIn(h.OldTo(), KindRecord, 1)
	if h.Marked(a) || !h.Mark(a) || h.Mark(a) || !h.Marked(a) || h.Marked(b) {
		t.Fatal("a mark is not one bit of one object, set once")
	}
	h.SwapOld()
	c, _ := h.AllocIn(h.OldTo(), KindRecord, 1) // a's offset in the other semispace
	if !h.Marked(c) {
		t.Fatal("the marks moved with the words, not with the to-space")
	}
	h.ClearMarks()
	if h.Marked(c) {
		t.Fatal("ClearMarks left a mark")
	}
}

func TestNurseryGrow(t *testing.T) {
	h := testHeap()
	limit := h.Nursery.LimitBytes()
	granted := h.Nursery.GrowBytes(1 << 14)
	if granted != 1<<14 {
		t.Fatalf("granted = %d", granted)
	}
	if h.Nursery.LimitBytes() != limit+1<<14 {
		t.Fatal("limit did not grow")
	}
	// Growth clamps at the hard cap.
	h.Nursery.GrowBytes(1 << 30)
	if h.Nursery.Hi != h.Nursery.Cap {
		t.Fatal("growth exceeded cap")
	}
}

func TestSpaceMembershipDisjoint(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocIn(&h.Nursery, KindRecord, 1)
	q, _ := h.AllocIn(h.OldFrom(), KindRecord, 1)
	r, _ := h.AllocIn(h.OldTo(), KindRecord, 1)
	for _, c := range []struct {
		v       Value
		n, a, b bool
	}{
		{p, true, false, false},
		{q, false, true, false},
		{r, false, false, true},
	} {
		if h.Nursery.Contains(c.v) != c.n || h.OldFrom().Contains(c.v) != c.a || h.OldTo().Contains(c.v) != c.b {
			t.Fatalf("membership wrong for %v", c.v)
		}
	}
	if h.Nursery.Contains(FromInt(123)) {
		t.Fatal("immediate contained in space")
	}
	if h.Nursery.Contains(Nil) {
		t.Fatal("nil contained in space")
	}
}

func TestSpaceLimitEdges(t *testing.T) {
	h := testHeap()
	s := &h.Nursery
	// Limit below current allocation clamps to Next.
	p, _ := h.AllocIn(s, KindRecord, 100)
	_ = p
	s.SetLimitBytes(0)
	if s.Hi < s.Next {
		t.Fatal("limit dropped below allocation cursor")
	}
	// Limit beyond cap clamps to cap.
	got := s.SetLimitBytes(1 << 40)
	if got != int64(s.Cap-s.Lo)*BytesPerWord {
		t.Fatalf("over-cap limit reports %d", got)
	}
	if s.FreeWords() != s.Hi-s.Next {
		t.Fatal("FreeWords inconsistent")
	}
}

func TestHeaderMaxLength(t *testing.T) {
	// Large length fields survive the header round trip (code buffers and
	// big arrays rely on this).
	h := MakeHeader(KindBytes, 1<<20)
	if h.Len() != 1<<20 || h.PayloadWords() != 1<<17 {
		t.Fatalf("big header: len=%d payload=%d", h.Len(), h.PayloadWords())
	}
	if !IsHeader(Value(h)) {
		t.Fatal("big header lost its descriptor tag")
	}
}

func TestNewHeapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sized space")
		}
	}()
	New(Config{NurseryBytes: 0, OldSemiBytes: 1 << 20})
}

// defaultShape is a mid-range paper heap: 1 MB nursery, 8 MB cap, 64 MB
// semispaces.
var defaultShape = Config{NurseryBytes: 1 << 20, NurseryCapBytes: 8 << 20, OldSemiBytes: 64 << 20}

func TestDefaultConfigUsable(t *testing.T) {
	h := New(defaultShape)
	if _, ok := h.AllocIn(&h.Nursery, KindRecord, 4); !ok {
		t.Fatal("default heap cannot allocate")
	}
}

// benchShape is the heap the repository benchmark builds (benchmarks/host:
// 0.2 MB nursery, 16 MB cap, 96 MB semispaces).
var benchShape = Config{NurseryBytes: 209715, NurseryCapBytes: 16 << 20, OldSemiBytes: 96 << 20}

// TestNewFootprint bounds what New takes beside the arena — Go allocations
// plus the mapping the arena lives in — at 1/32 of the arena's bytes, and
// holds Config.ArenaBytes, which recovery checks a snapshot against, to the
// arena New builds. The dirty map takes 1/64; a side table with a byte or
// more per arena word (the stamp table had four) cannot come back unnoticed,
// allocated or mapped.
func TestNewFootprint(t *testing.T) {
	for _, cfg := range []Config{defaultShape, benchShape} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mapped := mappedBytes.Load()
		h := New(cfg)
		mapped = mappedBytes.Load() - mapped
		runtime.ReadMemStats(&after)
		arena := int64(len(h.arena)) * BytesPerWord
		if arena != cfg.ArenaBytes() {
			t.Errorf("New(%+v) built a %d-byte arena, ArenaBytes says %d", cfg, arena, cfg.ArenaBytes())
		}
		got := int64(after.TotalAlloc-before.TotalAlloc) + mapped
		if limit := arena + arena/32; got > limit {
			t.Errorf("New(%+v) took %d bytes for a %d-byte arena, limit %d", cfg, got, arena, limit)
		}
	}
}

// awaitUnmapped collects until every arena mapping is unmapped. Cleanups run
// asynchronously after the collection that finds their heap dead, so it
// polls.
func awaitUnmapped(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		n := mappedBytes.Load()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes of arena mappings still live after their heaps were dropped", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestArenaReleased builds and drops heaps of the benchmark's size: each
// one's mapping must be unmapped once the heap is unreachable, or a process
// that builds a heap per run would exhaust its address space. An EpochHook
// closing over its own heap must not keep the mapping alive.
func TestArenaReleased(t *testing.T) {
	const heaps = 16
	for i := 0; i < heaps; i++ {
		h := New(benchShape)
		h.EpochHook = func(uint32) { h.arena[h.Nursery.Lo] = FromInt(int64(i)) }
		h.BeginLogEpoch()
		if arena := int64(len(h.arena)) * BytesPerWord; arenaMapped && mappedBytes.Load() < arena {
			t.Fatal("a mapped arena is not counted")
		}
	}
	awaitUnmapped(t)
}

// TestNewArenaReadsZero dirties a heap's spaces at every boundary and at
// random words, drops it, and requires a new heap of the same size to read 0
// at each of them, dirty map included. A fresh mapping always does; this
// holds any later reuse of arenas to the same.
func TestNewArenaReadsZero(t *testing.T) {
	h := New(benchShape)
	idx := []uint64{0, uint64(len(h.arena)) - 1}
	for _, s := range []*Space{&h.Nursery, h.OldFrom(), h.OldTo()} {
		idx = append(idx, s.Lo, s.Cap-1)
	}
	r := rng.New(28)
	for i := 0; i < 1000; i++ {
		idx = append(idx, r.Uint64n(uint64(len(h.arena))))
	}
	for _, i := range idx {
		h.arena[i] = Value(^uint64(0))
		h.markDirty(i>>6, 1<<(i&63))
	}
	h = nil
	awaitUnmapped(t)

	h = New(benchShape)
	for _, i := range idx {
		if w := h.arena[i]; w != 0 {
			t.Fatalf("word %d of a new arena reads %#x", i, w)
		}
	}
	if set, undo := DirtyState(h); set != 0 || undo != 0 {
		t.Fatalf("a new heap's dirty map has %d bits set, %d undo entries", set, undo)
	}
}

var heapSink *Heap

func BenchmarkHeapNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		heapSink = New(benchShape)
	}
}
