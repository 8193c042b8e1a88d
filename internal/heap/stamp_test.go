package heap

import (
	"slices"
	"testing"

	"repligc/internal/rng"
)

func TestStampEpochBasics(t *testing.T) {
	h := testHeap()
	p, ok := h.AllocIn(&h.Nursery, KindRecord, 4)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.SlotDirty(p, 0) {
		t.Fatal("fresh object reported dirty")
	}
	h.MarkSlotDirty(p, 0)
	if !h.SlotDirty(p, 0) {
		t.Fatal("MarkSlotDirty did not stick")
	}
	if h.SlotDirty(p, 1) {
		t.Fatal("neighbouring slot reported dirty")
	}
	h.BeginLogEpoch()
	if h.SlotDirty(p, 0) {
		t.Fatal("dirty bit survived an epoch advance")
	}
}

func TestStampWordRanges(t *testing.T) {
	h := testHeap()
	p, ok := h.AllocIn(&h.Nursery, KindBytes, 64)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.WordsDirty(p, 0, 3) {
		t.Fatal("fresh range reported dirty")
	}
	h.MarkWordsDirty(p, 1, 2)
	if !h.WordsDirty(p, 1, 2) {
		t.Fatal("marked range not dirty")
	}
	if h.WordsDirty(p, 0, 3) {
		t.Fatal("range with one clean word reported dirty")
	}
	h.MarkSlotDirty(p, 0)
	if !h.WordsDirty(p, 0, 3) {
		t.Fatal("fully marked range not dirty")
	}
}

// TestEpochCounterWraparound drives the uint32 epoch counter through zero.
// The counter no longer decides what is dirty, so the wrap must change
// nothing: every pause still clears every mark, EpochHook still fires once
// per pause, and the reported epoch skips 0.
func TestEpochCounterWraparound(t *testing.T) {
	h := testHeap()
	var seen []uint32
	h.EpochHook = func(epoch uint32) { seen = append(seen, epoch) }
	p := ptrFromIndex(h.OldFrom().Lo + 1)
	h.logEpoch = ^uint32(0) - 1
	for pause := 0; pause < 3; pause++ {
		h.MarkSlotDirty(p, pause)
		h.MarkWordsDirty(p, 100, 200)
		h.BeginLogEpoch()
		if set, undo := DirtyState(h); set != 0 || undo != 0 {
			t.Fatalf("pause %d (epoch %d) left %d dirty bits, %d undo entries", pause, h.logEpoch, set, undo)
		}
		if h.SlotDirty(p, pause) || h.WordsDirty(p, 100, 1) {
			t.Fatalf("pause %d (epoch %d) left a stale dirty answer", pause, h.logEpoch)
		}
	}
	if want := []uint32{^uint32(0), 1, 2}; !slices.Equal(seen, want) {
		t.Fatalf("EpochHook saw %v, want %v", seen, want)
	}
}

// TestDirtyMapMatchesOracle runs random mark / range-mark / query / pause /
// space-reset sequences against a map oracle of "marked since the last
// BeginLogEpoch". Addresses crowd the 64-word boundaries of the bit map and
// the last arena word, where the span masks are easiest to get wrong.
func TestDirtyMapMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		h := testHeap()
		r := rng.New(seed)
		end := uint64(len(h.arena))
		oracle := map[uint64]bool{}
		// pick returns an arena span [lo, lo+n) with minN ≤ n ≤ maxN.
		pick := func(minN, maxN int) (lo uint64, n int) {
			n = minN + r.Intn(maxN-minN+1)
			switch r.Intn(8) {
			case 0: // ends on, or just short of, the last arena word
				lo = end - uint64(n) - uint64(r.Intn(3))
			case 1, 2, 3, 4: // straddles or abuts a bit-map word boundary
				lo = 64*(2+r.Uint64n(end/64-5)) - uint64(r.Intn(70))
			default:
				lo = 1 + r.Uint64n(end-uint64(maxN)-1)
			}
			return lo, n
		}
		var lastLo uint64 // the latest range mark
		var lastN int
		// The API addresses words as (object, slot); split each span's
		// start at random between the two.
		addr := func(lo uint64) (Value, int) {
			slot := r.Intn(int(min(lo, 50)))
			return ptrFromIndex(lo - uint64(slot)), slot
		}
		for op := 0; op < 20000; op++ {
			switch k := r.Intn(100); {
			case k < 30:
				lo, _ := pick(1, 1)
				p, i := addr(lo)
				h.MarkSlotDirty(p, i)
				oracle[lo] = true
			case k < 50:
				lo, n := pick(0, 200)
				p, i := addr(lo)
				h.MarkWordsDirty(p, i, n)
				lastLo, lastN = lo, n
				for w := lo; w < lo+uint64(n); w++ {
					oracle[w] = true
				}
			case k < 70:
				lo, _ := pick(1, 1)
				p, i := addr(lo)
				if got := h.SlotDirty(p, i); got != oracle[lo] {
					t.Fatalf("seed %d op %d: SlotDirty(%#x) = %v, oracle %v", seed, op, lo, got, oracle[lo])
				}
			case k < 92:
				lo, n := pick(0, 200)
				if k < 82 && lastN > 0 {
					// Part of the latest range mark, sometimes one word
					// past its end: the queries that can answer true.
					off := r.Intn(lastN)
					lo, n = lastLo+uint64(off), r.Intn(lastN-off+2)
					n = min(n, int(end-lo))
				}
				want := true
				for w := lo; w < lo+uint64(n); w++ {
					want = want && oracle[w]
				}
				p, i := addr(lo)
				if got := h.WordsDirty(p, i, n); got != want {
					t.Fatalf("seed %d op %d: WordsDirty(%#x, %d) = %v, oracle %v", seed, op, lo, n, got, want)
				}
			case k < 95:
				// Emptying a space is not a pause: marks stay until the
				// next BeginLogEpoch, exactly as stamps did.
				h.Nursery.Reset()
			case k < 97:
				h.SwapOld()
			default:
				if set, undo := DirtyState(h); set != len(oracle) || undo > set {
					t.Fatalf("seed %d op %d: %d dirty bits and %d undo entries, oracle has %d marks", seed, op, set, undo, len(oracle))
				}
				h.BeginLogEpoch()
				if set, undo := DirtyState(h); set != 0 || undo != 0 {
					t.Fatalf("seed %d op %d: pause left %d dirty bits, %d undo entries", seed, op, set, undo)
				}
				clear(oracle)
			}
		}
	}
}

// TestMarkEpochCycleAllocatesNothing pins that the undo list keeps its
// capacity across pauses: once it has grown to a cycle's mark count, marking
// and pausing again is allocation-free.
func TestMarkEpochCycleAllocatesNothing(t *testing.T) {
	h := testHeap()
	p := ptrFromIndex(h.OldFrom().Lo + 1)
	cycle := func() {
		for i := 0; i < 64*512; i += 61 {
			h.MarkSlotDirty(p, i)
		}
		h.MarkWordsDirty(p, 7, 3000)
		h.BeginLogEpoch()
	}
	cycle() // grow the undo list once
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state mark-then-epoch cycle allocates %.1f times, want 0", n)
	}
}
