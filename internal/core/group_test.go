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
	// log actually sees entries.
	for _, m := range g.Members {
		m.NaiveBarrier = true
	}
	return g
}

// TestGroupSoloSharesLog pins the solo shape every member has: the barrier
// appends straight to the group's log, exactly like a NewMutator mutator.
func TestGroupSoloSharesLog(t *testing.T) {
	g := newTestGroup(t, 1)
	m := g.Members[0]
	if m.Log != g.Log {
		t.Fatal("one-member group does not share the group's log")
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

// TestGroupSharesLogAndFrontier holds a four-member group to the one-member
// shape: every member's stores are in g.Log, in execution order, before any
// pause; a checkpoint-style Pin taken mid-run keeps its range readable
// through the other members' appends and a trim to the head; and members
// allocating in turn leave the nursery one dense run of their own objects in
// allocation order, with no filler between them.
func TestGroupSharesLogAndFrontier(t *testing.T) {
	g := newTestGroup(t, 4)
	p, err := g.Members[0].Alloc(heap.KindArray, 8)
	if err != nil {
		t.Fatal(err)
	}
	g.Members[0].PushHandle(p)

	// Slot 0 is stored twice, by different members: both entries are logged
	// (naive barrier), where they were stored.
	order := []struct{ member, slot int }{{2, 5}, {0, 0}, {3, 7}, {1, 0}, {2, 1}, {0, 3}}
	var walBase int64
	for i, st := range order {
		if i == 2 {
			walBase = g.Log.Len()
			g.Log.Pin(walBase) // what checkpoint.Writer does on opening an epoch
		}
		g.Members[st.member].Set(p, st.slot, heap.FromInt(int64(i)))
	}
	if got := g.Log.Retained(); got != len(order) {
		t.Fatalf("shared log holds %d entries before any pause, want %d", got, len(order))
	}
	for i, st := range order {
		if e := g.Log.At(g.Log.Base() + int64(i)); e.Obj != p || e.Slot != int32(st.slot) {
			t.Fatalf("entry %d = %+v, want slot %d of %v (execution order)", i, e, st.slot, p)
		}
	}
	for i, m := range g.Members {
		if m.Log != g.Log || m.LogWrites == 0 {
			t.Fatalf("member %d: shares log %v, wrote %d entries", i, m.Log == g.Log, m.LogWrites)
		}
	}

	// A flip-style trim to the head is clamped to the pin, and the pinned
	// range still reads back the other members' entries.
	g.Log.TrimTo(g.Log.Len())
	if g.Log.Base() != walBase {
		t.Fatalf("trim passed the pin: base %d, pin %d", g.Log.Base(), walBase)
	}
	for i, st := range order[2:] {
		if e := g.Log.At(walBase + int64(i)); e.Slot != int32(st.slot) {
			t.Fatalf("pinned entry %d = %+v, want slot %d", i, e, st.slot)
		}
	}
	g.Log.Unpin()
	g.Log.TrimTo(g.Log.Len())
	if g.Log.Retained() != 0 {
		t.Fatalf("log retains %d entries after unpin+trim, want 0", g.Log.Retained())
	}

	// Round-robin allocation, tagged by member: the nursery walks as exactly
	// those objects in allocation order, ending at the cursor.
	var want []int64
	for k := 0; k < 200; k++ {
		for i, m := range g.Members {
			q, err := m.Alloc(heap.KindRecord, 1+(i+k)%7)
			if err != nil {
				t.Fatal(err)
			}
			m.Init(q, 0, heap.FromInt(int64(i*1000+k)))
			want = append(want, int64(i*1000+k))
		}
	}
	h := g.Members[0].H
	seen := -1 // the shared array comes first
	for idx := h.Nursery.Lo; idx < h.Nursery.Next; seen++ {
		hdr, q := heap.Header(h.Word(idx)), heap.Value((idx+1)<<3)
		if seen >= 0 {
			if hdr.Kind() != heap.KindRecord || seen >= len(want) || h.Load(q, 0).Int() != want[seen] {
				t.Fatalf("nursery object %d: %v %v, not the record allocated there", seen, hdr.Kind(), h.Load(q, 0))
			}
		}
		idx += uint64(hdr.SizeWords())
	}
	if seen != len(want) {
		t.Fatalf("nursery walk met %d records, want %d", seen, len(want))
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
