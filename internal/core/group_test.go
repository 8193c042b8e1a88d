package core

import (
	"testing"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

func newTestGroup(t *testing.T, n int) *Group {
	t.Helper()
	h := heap.New(heap.Config{NurseryBytes: 256 << 10, NurseryCapBytes: 1 << 20, OldSemiBytes: 4 << 20})
	g := NewGroup(h, simtime.NewClock(), simtime.Default1993(), LogAllMutations, n)
	// The log-centric tests below store into fresh nursery objects, which
	// the coalescing barrier's fast path would never log (copied whole at
	// the next startMinor); the naive barrier logs every mutation, so the
	// merge paths actually see entries.
	for _, m := range g.Members {
		m.NaiveBarrier = true
	}
	return g
}

// TestGroupSoloSharesLog pins the bit-identity precondition: a one-member
// group's barrier appends straight to the shared log and allocation bumps
// the space cursor (no chunking), exactly like a solo NewMutator mutator.
func TestGroupSoloSharesLog(t *testing.T) {
	g := newTestGroup(t, 1)
	m := g.Members[0]
	if m.local != g.Log {
		t.Fatal("one-member group does not share the collector-facing log")
	}
	if m.chunked {
		t.Fatal("one-member group should not chunk its nursery")
	}
	p, err := m.Alloc(heap.KindRef, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(p, 0, heap.FromInt(42))
	if g.Log.Retained() != 1 {
		t.Fatalf("barrier wrote %d entries to the shared log, want 1", g.Log.Retained())
	}
}

// TestGroupMergeAtPauseEntry checks the tentpole invariant: members' private
// logs drain into the shared log when the heap begins a new coalescing
// epoch, in canonical order with exact duplicates removed, and member
// chunks are sealed so the nursery still walks densely.
func TestGroupMergeAtPauseEntry(t *testing.T) {
	g := newTestGroup(t, 2)
	m0, m1 := g.Members[0], g.Members[1]

	p0, err := m0.Alloc(heap.KindArray, 4)
	if err != nil {
		t.Fatal(err)
	}
	h0 := m0.PushHandle(p0)

	// Both members mutate the same object; member 1 also hits the same
	// slot, producing an exact duplicate entry across the two private logs.
	m0.Set(p0, 0, heap.FromInt(1))
	m0.Set(p0, 1, heap.FromInt(2))
	m1.Set(p0, 0, heap.FromInt(3))
	m1.Set(p0, 2, heap.FromInt(4))

	if g.Log.Retained() != 0 {
		t.Fatalf("entries reached the shared log before any pause: %d", g.Log.Retained())
	}
	if m0.local.Retained() != 2 || m1.local.Retained() != 2 {
		t.Fatalf("private log counts: %d and %d, want 2 and 2", m0.local.Retained(), m1.local.Retained())
	}

	g.H.BeginLogEpoch() // pause entry

	if m0.local.Retained() != 0 || m1.local.Retained() != 0 {
		t.Fatal("private logs not drained at pause entry")
	}
	// Slots 0 (deduped), 1, 2 → three merged entries.
	if got := g.Log.Retained(); got != 3 {
		t.Fatalf("shared log holds %d entries after merge, want 3", got)
	}
	if g.MergeDropped != 1 {
		t.Fatalf("MergeDropped = %d, want 1 (the duplicate slot-0 entry)", g.MergeDropped)
	}
	// Canonical order: ascending slot on the same object.
	for i := int64(0); i < 3; i++ {
		e := g.Log.At(g.Log.Base() + i)
		if e.Obj != p0 || e.Slot != int32(i) {
			t.Fatalf("merged entry %d = %+v, want slot %d of %v", i, e, i, p0)
		}
	}
	// Chunks sealed: the nursery must walk as a dense object sequence.
	seen := 0
	g.H.WalkObjects(&g.H.Nursery, func(p heap.Value, hdr heap.Header) bool {
		seen++
		return true
	})
	if seen == 0 {
		t.Fatal("nursery walk saw no objects")
	}
	_ = h0
}

// TestGroupMergeOrderIndependent runs the same cross-member mutation set
// under opposite drain orders and requires identical shared-log contents —
// the canonical sort plus value-free dedup is what buys this.
func TestGroupMergeOrderIndependent(t *testing.T) {
	run := func(order []int) []LogEntry {
		g := newTestGroup(t, 2)
		g.SetMergeOrder(order)
		m0, m1 := g.Members[0], g.Members[1]
		p, err := m0.Alloc(heap.KindArray, 6)
		if err != nil {
			t.Fatal(err)
		}
		m0.PushHandle(p)
		m0.Set(p, 3, heap.FromInt(1))
		m1.Set(p, 1, heap.FromInt(2))
		m0.Set(p, 5, heap.FromInt(3))
		m1.Set(p, 3, heap.FromInt(4)) // duplicate slot across members
		g.H.BeginLogEpoch()
		var out []LogEntry
		for s := g.Log.Base(); s < g.Log.Len(); s++ {
			out = append(out, g.Log.At(s))
		}
		return out
	}
	a, b := run(nil), run([]int{1, 0})
	if len(a) != len(b) {
		t.Fatalf("merged lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs across drain orders: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestGroupMergePreservesPin is the checkpoint-interaction bugfix check: a
// WAL pin taken on the shared log before members logged anything must keep
// every merged entry reachable through the pinned range — merging happens
// at pause entry, before any cursor moves or trim runs, so a trim to the
// log head right after the merge must still retain the pinned suffix
// (including entries that originated in a different mutator's private log).
func TestGroupMergePreservesPin(t *testing.T) {
	g := newTestGroup(t, 2)
	m0, m1 := g.Members[0], g.Members[1]
	p, err := m0.Alloc(heap.KindArray, 4)
	if err != nil {
		t.Fatal(err)
	}
	m0.PushHandle(p)

	// Open a checkpoint epoch: pin the shared log at its current head,
	// exactly what checkpoint.Writer does with MinorLogCursor.
	walBase := g.Log.Len()
	g.Log.Pin(walBase)

	m0.Set(p, 0, heap.FromInt(10))
	m1.Set(p, 1, heap.FromInt(11))

	g.H.BeginLogEpoch() // merge lands the entries above the pin

	merged := g.Log.Len() - walBase
	if merged < 2 {
		t.Fatalf("merged %d entries above the pin, want >= 2", merged)
	}

	// A flip-style trim to the head must be clamped to the pin.
	g.Log.TrimTo(g.Log.Len())
	if g.Log.Base() != walBase {
		t.Fatalf("trim passed the pin: base %d, pin %d", g.Log.Base(), walBase)
	}
	// The WAL replay range must still be fully readable, member-1-origin
	// entries included.
	sawM1 := false
	for s := walBase; s < g.Log.Len(); s++ {
		e := g.Log.At(s)
		if e.Obj == p && e.Slot == 1 && !e.Byte {
			sawM1 = true
		}
	}
	if !sawM1 {
		t.Fatal("member 1's pinned entry did not survive the merge+trim")
	}

	// After commit the pin lifts and the trim completes.
	g.Log.Unpin()
	g.Log.TrimTo(g.Log.Len())
	if g.Log.Retained() != 0 {
		t.Fatalf("log retains %d entries after unpin+trim, want 0", g.Log.Retained())
	}
}

// TestGroupChunkedAllocation drives a member through several chunk refills
// and checks the nursery stays densely walkable after sealing.
func TestGroupChunkedAllocation(t *testing.T) {
	g := newTestGroup(t, 4)
	var ps []heap.Value
	for i, m := range g.Members {
		for k := 0; k < 200; k++ {
			p, err := m.Alloc(heap.KindRecord, 1+(i+k)%7)
			if err != nil {
				t.Fatal(err)
			}
			m.Init(p, 0, heap.FromInt(int64(i*1000+k)))
			if k%10 == 0 {
				m.PushHandle(p)
				ps = append(ps, p)
			}
		}
	}
	g.H.BeginLogEpoch() // seal all chunks
	// The walk must traverse every allocated object and filler without
	// tripping over a malformed header.
	var live, fillers int
	g.H.WalkObjects(&g.H.Nursery, func(p heap.Value, hdr heap.Header) bool {
		if hdr.Kind() == heap.KindBytes {
			fillers++
		} else {
			live++
		}
		return true
	})
	if live < 800 {
		t.Fatalf("walk saw %d records, want >= 800", live)
	}
	if fillers == 0 {
		t.Fatal("sealing produced no fillers despite multiple open chunks")
	}
	// Spot-check object contents survived chunked allocation.
	for i, p := range ps {
		if v := g.Members[0].Get(p, 0); !v.IsInt() {
			t.Fatalf("object %d slot 0 not an int: %v", i, v)
		}
	}
}

// TestGroupOversizedFallsBack pins the big-object path: an object larger
// than a chunk must come off the shared cursor, not wedge the chunk loop.
func TestGroupOversizedFallsBack(t *testing.T) {
	g := newTestGroup(t, 2)
	m := g.Members[0]
	// Larger than chunkWords (max 8192 words) is impossible within the
	// nursery here; use a size bigger than the computed chunk but small
	// enough to fit: chunk words for a 256 KiB nursery and n=2 is
	// 256Ki/8/8 = 4096 words. 5000 payload words exceeds it.
	p, err := m.Alloc(heap.KindArray, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsPtr() {
		t.Fatal("oversized alloc returned non-pointer")
	}
}

// stubCollector feeds Run/reconcile a hand-authored pause stream.
type stubCollector struct {
	rec   simtime.Recorder
	stats GCStats
}

func (s *stubCollector) Name() string                        { return "stub" }
func (s *stubCollector) CollectForAlloc(*Mutator, int) error { return nil }
func (s *stubCollector) AfterAlloc(*Mutator)                 {}
func (s *stubCollector) FinishCycles(*Mutator) error         { return nil }
func (s *stubCollector) Stats() *GCStats                     { return &s.stats }
func (s *stubCollector) Pauses() *simtime.Recorder           { return &s.rec }

// TestGroupWallAccounting hand-computes the overlap projection for a
// two-member group with one pause: only the Sync portion stops both
// members; the remainder overlaps member 1's next quantum.
func TestGroupWallAccounting(t *testing.T) {
	g := newTestGroup(t, 2)
	stub := &stubCollector{}
	g.AttachGC(stub)

	const q = 100 * simtime.Microsecond
	// Quantum 1: member 0 runs q, then a pause of 40us with 10us sync.
	if err := g.Run(0, func(m *Mutator) error {
		m.Clock.Charge(simtime.AcctMutator, q)
		at := m.Clock.Now()
		m.Clock.Charge(simtime.AcctMinorCopy, 40*simtime.Microsecond)
		stub.rec.Record(simtime.Pause{At: at, Length: 40 * simtime.Microsecond, Sync: 10 * simtime.Microsecond})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Quantum 2: member 1 runs q.
	if err := g.Run(1, func(m *Mutator) error {
		m.Clock.Charge(simtime.AcctMutator, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Expectations: barrier at t=100us (both members' walls level), sync
	// 10us stops both; member 0 (the triggerer) waits the full 40us.
	// wall0 = 100 + 40 = 140. wall1 = 100 + 10 + 100 = 210.
	if w0 := g.Wall(0); w0 != 140*simtime.Microsecond {
		t.Fatalf("wall0 = %v, want 140us", w0)
	}
	if w1 := g.Wall(1); w1 != 210*simtime.Microsecond {
		t.Fatalf("wall1 = %v, want 210us", w1)
	}
	// Serial clock advanced 240us; makespan is 210us → overlap ratio > 1.
	if g.Clock.Now() != 240*simtime.Microsecond {
		t.Fatalf("serial clock = %v, want 240us", g.Clock.Now())
	}
	if e := g.Elapsed(); e != 210*simtime.Microsecond {
		t.Fatalf("elapsed = %v, want 210us", e)
	}
	if r := g.OverlapRatio(); r <= 1 {
		t.Fatalf("overlap ratio = %v, want > 1", r)
	}
	// Each member performed exactly one quantum of useful time.
	if g.Work(0) != q || g.Work(1) != q {
		t.Fatalf("work = %v, %v; want %v each", g.Work(0), g.Work(1), q)
	}
	// The group recorder holds one all-stopped interval of the sync length
	// at the barrier point.
	ps := g.GroupPauses().Pauses
	if len(ps) != 1 || ps[0].Length != 10*simtime.Microsecond || ps[0].At != q {
		t.Fatalf("group pauses = %+v, want one 10us pause at 100us", ps)
	}
	// MMU over a 50us window must reflect the 10us stop, not the 40us one.
	if mmu := simtime.MMUFromPauses(ps, g.Elapsed(), 50*simtime.Microsecond); mmu < 0.79 || mmu > 0.81 {
		t.Fatalf("MMU(50us) = %v, want 0.8", mmu)
	}
}

// TestGroupSoloWallMatchesClock pins the degenerate case: a one-member
// group's wall timeline tracks the serial clock exactly — the sole mutator
// waits out every pause in full, so nothing overlaps and the projection is
// the identity.
func TestGroupSoloWallMatchesClock(t *testing.T) {
	g := newTestGroup(t, 1)
	stub := &stubCollector{}
	g.AttachGC(stub)
	for i := 0; i < 4; i++ {
		withPause := i == 1 || i == 3
		if err := g.Run(0, func(m *Mutator) error {
			m.Clock.Charge(simtime.AcctMutator, 50*simtime.Microsecond)
			if withPause {
				at := m.Clock.Now()
				m.Clock.Charge(simtime.AcctMinorCopy, 30*simtime.Microsecond)
				stub.rec.Record(simtime.Pause{At: at, Length: 30 * simtime.Microsecond, Sync: 5 * simtime.Microsecond})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if g.Elapsed() != g.Clock.Now() {
		t.Fatalf("solo group: elapsed %v != clock %v", g.Elapsed(), g.Clock.Now())
	}
	if r := g.OverlapRatio(); r != 1 {
		t.Fatalf("solo group overlap ratio = %v, want 1", r)
	}
	// A pause whose Sync is zero or exceeds its length stops a two-member
	// group for its whole length.
	for _, sync := range []simtime.Duration{0, 31 * simtime.Microsecond} {
		g2 := newTestGroup(t, 2)
		stub2 := &stubCollector{}
		g2.AttachGC(stub2)
		if err := g2.Run(0, func(m *Mutator) error {
			m.Clock.Charge(simtime.AcctMutator, 50*simtime.Microsecond)
			at := m.Clock.Now()
			m.Clock.Charge(simtime.AcctMinorCopy, 30*simtime.Microsecond)
			stub2.rec.Record(simtime.Pause{At: at, Length: 30 * simtime.Microsecond, Sync: sync})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ps := g2.GroupPauses().Pauses
		if len(ps) != 1 || ps[0].Length != 30*simtime.Microsecond {
			t.Fatalf("Sync=%v pause = %+v, want full 30us stop", sync, ps)
		}
	}
}
