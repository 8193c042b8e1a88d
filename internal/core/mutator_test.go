package core_test

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// bareMutator builds a mutator without a collector for barrier-level tests
// that never exhaust the nursery.
func bareMutator() *core.Mutator {
	h := heap.New(heap.Config{NurseryBytes: 1 << 20, NurseryCapBytes: 2 << 20, OldSemiBytes: 8 << 20})
	return core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
}

func TestBarrierLoggingPolicies(t *testing.T) {
	for _, pol := range []core.LogPolicy{core.LogPointersOnly, core.LogAllMutations} {
		// NaiveBarrier pins the policy matrix itself: which stores the
		// barrier's slow path records under each compiler configuration.
		h := heap.New(heap.Config{NurseryBytes: 1 << 20, NurseryCapBytes: 2 << 20, OldSemiBytes: 8 << 20})
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), pol)
		m.NaiveBarrier = true

		obj := m.MustAlloc(heap.KindArray, 4)
		target := m.MustAlloc(heap.KindRecord, 1)
		before := m.LogWrites
		m.Set(obj, 0, target)           // pointer store: always logged
		m.Set(obj, 1, heap.FromInt(42)) // immediate store: LogAll only
		bs := m.MustAllocBytes(8)
		m.SetByte(bs, 0, 7) // byte store: LogAll only
		got := m.LogWrites - before

		want := int64(3)
		if pol == core.LogPointersOnly {
			want = 1
		}
		if got != want {
			t.Errorf("%v: %d log writes, want %d", pol, got, want)
		}
	}
}

// TestBarrierNurseryFastPath pins the fast path: stores into unreplicated
// nursery objects append nothing (the next startMinor copies the object
// with its current contents), and the skip is counted.
func TestBarrierNurseryFastPath(t *testing.T) {
	m := bareMutator()
	obj := m.MustAlloc(heap.KindArray, 4)
	target := m.MustAlloc(heap.KindRecord, 1)
	bs := m.MustAllocBytes(16)
	before := m.LogWrites
	m.Set(obj, 0, target)
	m.Set(obj, 1, heap.FromInt(42))
	m.SetByte(bs, 0, 7)
	m.SetByteRange(bs, 8, []byte{1, 2, 3})
	if got := m.LogWrites - before; got != 0 {
		t.Fatalf("nursery stores appended %d log entries, want 0", got)
	}
	if m.BarrierFastSkips != 4 {
		t.Fatalf("BarrierFastSkips = %d, want 4", m.BarrierFastSkips)
	}
	// The stores themselves must still land.
	if m.Get(obj, 0) != target || m.Get(obj, 1) != heap.FromInt(42) {
		t.Fatal("skipped stores did not reach the heap")
	}
	if m.GetByte(bs, 0) != 7 || m.GetByte(bs, 9) != 2 {
		t.Fatal("skipped byte stores did not reach the heap")
	}
}

// TestBarrierDirtyStampCoalesces pins the dirty-stamp path on old-space
// objects: the first store to a slot in an epoch logs one entry; repeats
// are suppressed until the next epoch begins.
func TestBarrierDirtyStampCoalesces(t *testing.T) {
	m := bareMutator()
	p, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 4)
	if !ok {
		t.Fatal("old-space alloc failed")
	}
	before := m.LogWrites
	for i := 0; i < 10; i++ {
		m.Set(p, 0, heap.FromInt(int64(i)))
	}
	if got := m.LogWrites - before; got != 1 {
		t.Fatalf("10 stores to one slot logged %d entries, want 1", got)
	}
	if m.BarrierDirtySkips != 9 {
		t.Fatalf("BarrierDirtySkips = %d, want 9", m.BarrierDirtySkips)
	}
	m.Set(p, 1, heap.FromInt(1)) // distinct slot: its own entry
	if got := m.LogWrites - before; got != 2 {
		t.Fatalf("store to second slot logged %d total entries, want 2", got)
	}
	m.H.BeginLogEpoch() // a pause expires every stamp
	m.Set(p, 0, heap.FromInt(99))
	if got := m.LogWrites - before; got != 3 {
		t.Fatalf("post-epoch store logged %d total entries, want 3", got)
	}
}

func TestSetByteRangeCoalesces(t *testing.T) {
	m := bareMutator()
	// An old-space buffer: nursery targets take the no-log fast path.
	p, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindBytes, 64)
	if !ok {
		t.Fatal("old-space alloc failed")
	}
	before := m.LogWrites
	data := []byte("hello world, hello world!")
	m.SetByteRange(p, 3, data)
	if m.LogWrites != before+1 {
		t.Fatalf("range store logged %d entries, want 1", m.LogWrites-before)
	}
	for i, b := range data {
		if m.GetByte(p, 3+i) != b {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	// A second store into the same (word-aligned) region coalesces away.
	m.SetByteRange(p, 4, data[:8])
	if m.LogWrites != before+1 {
		t.Fatalf("overlapping range store logged %d entries, want 1", m.LogWrites-before)
	}
	// Empty ranges log nothing.
	m.SetByteRange(p, 0, nil)
	if m.LogWrites != before+1 {
		t.Fatal("empty range produced a log entry")
	}
	// The naive barrier appends the entry the dirty bits suppressed: one per
	// range, whatever was logged before.
	m.NaiveBarrier = true
	m.SetByteRange(p, 3, data)
	if m.LogWrites != before+2 {
		t.Fatalf("naive range store logged %d entries, want 2 total", m.LogWrites-before)
	}
}

// TestNaiveBarrierIsTheSkipTurnedOff pins that the two barriers differ only
// in the skip: a first store into an old-space object at a fresh epoch — one
// the skip cannot suppress — appends the same entries under both, and a byte
// entry is widened to the words it touches under both.
func TestNaiveBarrierIsTheSkipTurnedOff(t *testing.T) {
	stores := []struct {
		name string
		do   func(m *core.Mutator, arr, big, bs heap.Value)
		lo   int // bytes stored: [lo, hi); 0, 0 for a word store
		hi   int
	}{
		{"Set", func(m *core.Mutator, arr, _, _ heap.Value) { m.Set(arr, 2, heap.FromInt(7)) }, 0, 0},
		{"Init", func(m *core.Mutator, _, big, _ heap.Value) { m.Init(big, 3, heap.FromInt(7)) }, 0, 0},
		{"SetByte", func(m *core.Mutator, _, _, bs heap.Value) { m.SetByte(bs, 13, 7) }, 13, 14},
		{"SetByteRange/word", func(m *core.Mutator, _, _, bs heap.Value) { m.SetByteRange(bs, 17, []byte{1, 2, 3}) }, 17, 20},
		{"SetByteRange/words", func(m *core.Mutator, _, _, bs heap.Value) { m.SetByteRange(bs, 6, make([]byte, 13)) }, 6, 19},
	}
	run := func(naive bool, do func(m *core.Mutator, arr, big, bs heap.Value)) []core.LogEntry {
		m := bareMutator()
		m.NaiveBarrier = naive
		arr, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 4)
		bs, ok2 := m.H.AllocIn(m.H.OldFrom(), heap.KindBytes, 64)
		if !ok || !ok2 {
			t.Fatal("old-space alloc failed")
		}
		big := m.MustAlloc(heap.KindArray, 80<<10) // oversized: allocated directly in old space
		m.H.BeginLogEpoch()
		before := m.Log.Len()
		do(m, arr, big, bs)
		var got []core.LogEntry
		for seq := before; seq < m.Log.Len(); seq++ {
			got = append(got, m.Log.At(seq))
		}
		return got
	}
	for _, st := range stores {
		naive, coal := run(true, st.do), run(false, st.do)
		if len(coal) != 1 || len(naive) != len(coal) || naive[0] != coal[0] {
			t.Errorf("%s: naive appended %+v, coalescing %+v; want one identical entry", st.name, naive, coal)
			continue
		}
		e := coal[0]
		if e.Byte != (st.hi > 0) {
			t.Errorf("%s: entry %+v, want Byte = %v", st.name, e, st.hi > 0)
		}
		if !e.Byte {
			continue
		}
		if e.Slot%heap.BytesPerWord != 0 || e.Len <= 0 || e.Len%heap.BytesPerWord != 0 ||
			int(e.Slot) > st.lo || int(e.Slot+e.Len) < st.hi {
			t.Errorf("%s: entry %+v is not word-aligned over bytes [%d, %d)", st.name, e, st.lo, st.hi)
		}
	}
}

func TestInitToOldSpaceIsLogged(t *testing.T) {
	m := bareMutator()
	// Oversized: bigger than half the nursery goes straight to old space.
	big := m.MustAlloc(heap.KindArray, 80<<10) // 640 KB > 512 KB
	if !m.H.OldFrom().Contains(big) {
		t.Fatal("oversized allocation not in old space")
	}
	small := m.MustAlloc(heap.KindRecord, 1)
	before := m.LogWrites
	m.Init(big, 0, small) // old→new pointer via Init: must be logged
	if m.LogWrites != before+1 {
		t.Fatal("Init into old space not logged")
	}
	before = m.LogWrites
	m.Init(small, 0, heap.FromInt(1)) // nursery Init: never logged
	if m.LogWrites != before {
		t.Fatal("nursery Init was logged")
	}
}

func TestHandleDiscipline(t *testing.T) {
	m := bareMutator()
	mark := m.HandleMark()
	a := m.PushHandle(m.MustAlloc(heap.KindRecord, 1))
	b := m.PushHandle(heap.FromInt(9))
	if m.HandleVal(b).Int() != 9 {
		t.Fatal("handle deref broken")
	}
	m.SetHandleVal(b, heap.FromInt(10))
	if m.HandleVal(b).Int() != 10 {
		t.Fatal("handle update broken")
	}
	c := m.Collapse(mark, b)
	if m.HandleVal(c).Int() != 10 {
		t.Fatal("collapse lost the value")
	}
	if m.HandleMark() != mark+1 {
		t.Fatalf("collapse left depth %d, want %d", m.HandleMark(), mark+1)
	}
	m.PopHandles(mark)
	_ = a
	defer func() {
		if recover() == nil {
			t.Fatal("PopHandles beyond stack must panic")
		}
	}()
	m.PopHandles(mark + 5)
}

func TestPolymorphicEquality(t *testing.T) {
	m := bareMutator()
	s1 := m.MustAllocString([]byte("abc"))
	s2 := m.MustAllocString([]byte("abc"))
	s3 := m.MustAllocString([]byte("abd"))
	if !m.Eq(s1, s2) || m.Eq(s1, s3) {
		t.Fatal("string equality broken")
	}

	mkPair := func(a, b heap.Value) heap.Value {
		p := m.MustAlloc(heap.KindRecord, 2)
		m.Init(p, 0, a)
		m.Init(p, 1, b)
		return p
	}
	p1 := mkPair(heap.FromInt(1), s1)
	p2 := mkPair(heap.FromInt(1), s2)
	p3 := mkPair(heap.FromInt(2), s1)
	if !m.Eq(p1, p2) || m.Eq(p1, p3) {
		t.Fatal("structural record equality broken")
	}

	r1 := m.MustAlloc(heap.KindRef, 1)
	r2 := m.MustAlloc(heap.KindRef, 1)
	if m.Eq(r1, r2) || !m.Eq(r1, r1) {
		t.Fatal("ref identity equality broken")
	}
	if m.Eq(heap.FromInt(3), s1) || !m.Eq(heap.FromInt(3), heap.FromInt(3)) {
		t.Fatal("immediate equality broken")
	}
	// Different lengths are never equal.
	if m.Eq(m.MustAllocString([]byte("ab")), s1) {
		t.Fatal("length mismatch compared equal")
	}
}

// TestOversizedDuringActiveCollections exercises the skip-span machinery:
// objects allocated directly in old space while incremental collections are
// in flight are mutator-owned, must not be treated as replicas, and must
// survive with correct contents.
func TestOversizedDuringActiveCollections(t *testing.T) {
	cfg := core.Config{
		NurseryBytes:        16 << 10,
		MajorThresholdBytes: 64 << 10,
		CopyLimitBytes:      2 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
	m, gc := newRun(cfg, core.LogAllMutations)
	d := gctest.NewDriver(m, 3)

	type bigRef struct {
		arr heap.Value
	}
	roots := &bigRef{}
	m.Roots.Register(rootFunc(func(v core.RootVisitor) { v(&roots.arr) }))

	// Keep churning; periodically allocate an oversized array mid-cycle,
	// fill it with pointers to fresh nursery objects, and verify later.
	for round := 0; round < 20; round++ {
		d.Step(300)
		big := m.MustAlloc(heap.KindArray, 2<<10) // 16 KB > half of 16 KB nursery
		roots.arr = big
		for i := 0; i < 32; i++ {
			small := m.MustAlloc(heap.KindRecord, 1)
			m.Init(small, 0, heap.FromInt(int64(round*100+i)))
			m.Set(big, i, small)
		}
		d.Step(300)
		for i := 0; i < 32; i++ {
			got := m.Get(m.Get(roots.arr, i), 0).Int()
			if got != int64(round*100+i) {
				t.Fatalf("round %d slot %d: got %d", round, i, got)
			}
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	gc.FinishCycles(m)
	if err := core.AuditHeap(m); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedAfterScanPassedOne pins the skip cursor across two oversized
// allocations in one incremental minor cycle: the second arrives after the
// scan has stepped over the first, and the scan must step over it too. Were it
// scanned as a promoted replica, its slot would be re-pointed at a nursery
// object's replica before the flip, and a store through the mutator's root
// would no longer be read back through it.
func TestOversizedAfterScanPassedOne(t *testing.T) {
	m, gc := newRun(core.Config{
		NurseryBytes:     16 << 10,
		CopyLimitBytes:   256,
		IncrementalMinor: true,
	}, core.LogAllMutations)
	roots := struct{ anchor, big1, big2, n heap.Value }{}
	m.Roots.Register(rootFunc(func(v core.RootVisitor) {
		v(&roots.anchor)
		v(&roots.big1)
		v(&roots.big2)
		v(&roots.n)
	}))
	const bigSlots, nodes = 1100, 300 // 8.8 KB: over half the nursery
	headerWord := func(p heap.Value) uint64 { return uint64(p)>>3 - 1 }

	// An old anchor holding a nursery list: the minor copies it a few nodes
	// a pause, so the scan region grows past whatever is allocated there.
	roots.anchor = m.MustAlloc(heap.KindArray, bigSlots)
	list := heap.Nil
	for i := nodes - 1; i >= 0; i-- {
		node := m.MustAlloc(heap.KindRecord, 2)
		m.Init(node, 0, heap.FromInt(int64(i)))
		m.Init(node, 1, list)
		list = node
	}
	m.Set(roots.anchor, 0, list)
	verifyList := func(when string) {
		t.Helper()
		p := m.Get(roots.anchor, 0)
		for i := 0; i < nodes; i++ {
			if got := m.Get(p, 0).Int(); got != int64(i) {
				t.Fatalf("%s: list node %d holds %d", when, i, got)
			}
			p = m.Get(p, 1)
		}
	}
	pause := func() bool {
		t.Helper()
		if err := gc.CollectForAlloc(m, 0); err != nil {
			t.Fatal(err)
		}
		active, _ := gc.MinorScan()
		return active
	}
	// passed reports whether the scan has stepped past p's last word.
	passed := func(p heap.Value) bool {
		_, scan := gc.MinorScan()
		return scan >= headerWord(p)+uint64(heap.MakeHeader(heap.KindArray, bigSlots).SizeWords())
	}

	if !pause() {
		t.Fatal("the first pause completed the minor collection")
	}
	roots.big1 = m.MustAlloc(heap.KindArray, bigSlots)
	for !passed(roots.big1) {
		if !pause() {
			t.Fatal("the minor collection completed before its scan passed the first oversized object")
		}
	}

	roots.n = m.MustAlloc(heap.KindRef, 1)
	m.Init(roots.n, 0, heap.FromInt(0))
	roots.big2 = m.MustAlloc(heap.KindArray, bigSlots)
	m.Set(roots.big2, 0, roots.n)
	check := func(when string, k int64) {
		t.Helper()
		if got := m.Get(roots.big2, 0); got != roots.n {
			t.Fatalf("%s: the second oversized object holds %v where the mutator's root holds %v", when, got, roots.n)
		}
		if got := m.Get(m.Get(roots.big2, 0), 0).Int(); got != k {
			t.Fatalf("%s: read %d back through the second oversized object, want %d", when, got, k)
		}
		if err := core.AuditHeap(m); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	k := int64(0)
	for active := true; active; {
		k++
		m.Set(roots.n, 0, heap.FromInt(k))
		check("mid-cycle", k)
		active = pause()
		check("after a pause", k)
		if passed(roots.big2) {
			break
		}
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatal(err)
	}
	if gc.Stats().MinorCollections != 1 {
		t.Fatalf("%d minor collections, want 1", gc.Stats().MinorCollections)
	}
	check("after the flip", k)
	verifyList("after the flip")
}

// rootFunc adapts a function to core.RootSource.
type rootFunc func(core.RootVisitor)

func (f rootFunc) VisitRoots(v core.RootVisitor) { f(v) }

func TestLogTrimming(t *testing.T) {
	var l core.MutationLog
	for i := 0; i < 100; i++ {
		l.Append(core.LogEntry{Slot: int32(i)})
	}
	if l.Len() != 100 || l.Base() != 0 {
		t.Fatalf("len=%d base=%d", l.Len(), l.Base())
	}
	l.TrimTo(40)
	if l.Base() != 40 || l.Retained() != 60 {
		t.Fatalf("after trim: base=%d retained=%d", l.Base(), l.Retained())
	}
	if l.At(40).Slot != 40 || l.At(99).Slot != 99 {
		t.Fatal("entries shifted incorrectly")
	}
	l.TrimTo(10) // no-op backwards
	if l.Base() != 40 {
		t.Fatal("backwards trim changed base")
	}
	l.TrimTo(1000) // clamped
	if l.Retained() != 0 {
		t.Fatal("over-trim retained entries")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At below base must panic")
		}
	}()
	l.At(5)
}

func TestCollectorlessAllocReturnsTypedOOM(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 8 << 10, NurseryCapBytes: 8 << 10, OldSemiBytes: 1 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	for i := 0; i < 10000; i++ {
		_, err := m.Alloc(heap.KindRecord, 8)
		if err == nil {
			continue
		}
		oom, ok := core.AsOOM(err)
		if !ok {
			t.Fatalf("want *core.OOMError, got %T: %v", err, err)
		}
		if oom.Resource != core.OOMNursery && oom.Resource != core.OOMExpansion {
			t.Fatalf("unexpected exhausted resource %v", oom.Resource)
		}
		if err := core.AuditHeap(m); err != nil {
			t.Fatalf("heap not auditable after OOM: %v", err)
		}
		return
	}
	t.Fatal("expected out-of-memory error")
}

func TestMustAllocPanicsWithTypedOOM(t *testing.T) {
	h := heap.New(heap.Config{NurseryBytes: 8 << 10, NurseryCapBytes: 8 << 10, OldSemiBytes: 1 << 20})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected out-of-memory panic")
		}
		err, ok := r.(error)
		if !ok || !core.IsOOM(err) {
			t.Fatalf("panic value is not a typed OOM error: %v", r)
		}
	}()
	for i := 0; i < 10000; i++ {
		m.MustAlloc(heap.KindRecord, 8)
	}
}
