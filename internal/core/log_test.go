package core

import (
	"testing"

	"repligc/internal/heap"
)

// TestTrimToCompacts pins the satellite fix for TrimTo's worst case: a log
// spike followed by trims must not leave a huge backing array pinned behind
// a few retained entries, and repeated small trims must not retain the full
// original capacity forever.
func TestTrimToCompacts(t *testing.T) {
	var l MutationLog
	const spike = 4096
	for i := 0; i < spike; i++ {
		l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
	}
	spikeCap := l.Capacity()
	if spikeCap < spike {
		t.Fatalf("capacity %d below appended count %d", spikeCap, spike)
	}

	// Trim away all but 16 entries: retained << cap/4, so the backing
	// array must be replaced by a right-sized one.
	l.TrimTo(l.Len() - 16)
	if got := l.Retained(); got != 16 {
		t.Fatalf("Retained() = %d, want 16", got)
	}
	if l.Capacity() >= spikeCap/4 {
		t.Fatalf("TrimTo retained capacity %d of spike capacity %d; want compaction below 1/4", l.Capacity(), spikeCap)
	}

	// The retained entries must survive compaction with sequence numbers
	// intact.
	for seq := l.Base(); seq < l.Len(); seq++ {
		if got := l.At(seq); int64(got.Slot) != seq {
			t.Fatalf("entry %d corrupted after compaction: slot %d", seq, got.Slot)
		}
	}
}

// TestTrimToSmallLogsStayPut checks the compaction floor: trims on small
// logs are plain re-slices with no reallocation churn.
func TestTrimToSmallLogsStayPut(t *testing.T) {
	var l MutationLog
	for i := 0; i < trimCompactFloor; i++ {
		l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
	}
	l.TrimTo(l.Len() - 2)
	if got := l.Retained(); got != 2 {
		t.Fatalf("Retained() = %d, want 2", got)
	}
	if l.Capacity() > trimCompactFloor {
		t.Fatalf("small log capacity %d exceeds floor %d", l.Capacity(), trimCompactFloor)
	}
}

// TestTrimToRepeatedSmallTrims drives the steady-state pattern — append a
// few, trim a few — and checks capacity stays bounded by a small multiple
// of the live window rather than growing with total log traffic.
func TestTrimToRepeatedSmallTrims(t *testing.T) {
	var l MutationLog
	const window = 128
	for round := 0; round < 2000; round++ {
		for i := 0; i < window; i++ {
			l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
		}
		l.TrimTo(l.Len() - 8)
		if got := l.Retained(); got != 8 {
			t.Fatalf("round %d: Retained() = %d, want 8", round, got)
		}
	}
	// Amortised bound: with compaction at cap/4 the capacity can never
	// exceed 4× the post-trim window (plus append's doubling slack).
	if l.Capacity() > 16*window {
		t.Fatalf("steady-state capacity %d grew unboundedly (window %d)", l.Capacity(), window)
	}
}

// TestTrimToRespectsPin pins the checkpoint truncation race: while an epoch
// holds a pin, a minor flip's trim must not discard entries the epoch will
// replay at commit, even when the trim target is far past the pin.
func TestTrimToRespectsPin(t *testing.T) {
	var l MutationLog
	for i := 0; i < 256; i++ {
		l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
	}

	l.Pin(100)
	l.TrimTo(200) // a flip passing the pin: must clamp to 100
	if got := l.Base(); got != 100 {
		t.Fatalf("Base() = %d after pinned trim, want 100", got)
	}
	for seq := int64(100); seq < l.Len(); seq++ {
		if got := l.At(seq); int64(got.Slot) != seq {
			t.Fatalf("entry %d corrupted by pinned trim: slot %d", seq, got.Slot)
		}
	}

	// Trims below the pin still work.
	l.TrimTo(100)
	if got := l.Base(); got != 100 {
		t.Fatalf("Base() = %d, want 100", got)
	}

	// Unpin releases the clamp; the deferred trim can now complete.
	l.Unpin()
	l.TrimTo(200)
	if got := l.Base(); got != 200 {
		t.Fatalf("Base() = %d after unpinned trim, want 200", got)
	}
}

// TestTrimToPinSurvivesCompaction drives a pinned trim through the
// compaction path and checks the pinned range survives the copy.
func TestTrimToPinSurvivesCompaction(t *testing.T) {
	var l MutationLog
	const spike = 4096
	for i := 0; i < spike; i++ {
		l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
	}
	pin := l.Len() - 32
	l.Pin(pin)
	l.TrimTo(l.Len()) // wants everything gone; pin holds the last 32
	if got := l.Base(); got != pin {
		t.Fatalf("Base() = %d, want pin %d", got, pin)
	}
	if got := l.Retained(); got != 32 {
		t.Fatalf("Retained() = %d, want 32", got)
	}
	for seq := pin; seq < l.Len(); seq++ {
		if got := l.At(seq); int64(got.Slot) != seq {
			t.Fatalf("entry %d corrupted: slot %d", seq, got.Slot)
		}
	}
}

// TestPinClampsToBase checks that pinning below the already-trimmed base
// cannot resurrect discarded entries or wedge future trims.
func TestPinClampsToBase(t *testing.T) {
	var l MutationLog
	for i := 0; i < 64; i++ {
		l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
	}
	l.TrimTo(40)
	l.Pin(10) // below base: effective pin is 40
	if pin, ok := l.Pinned(); !ok || pin != 40 {
		t.Fatalf("Pinned() = (%d, %v), want (40, true)", pin, ok)
	}
	l.TrimTo(50)
	if got := l.Base(); got != 40 {
		t.Fatalf("Base() = %d, want 40 (clamped to pin)", got)
	}
}

// TestLogRestore checks the recovery path's wholesale replacement: contents,
// base, and the pin all reset.
func TestLogRestore(t *testing.T) {
	var l MutationLog
	for i := 0; i < 16; i++ {
		l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(i)})
	}
	l.Pin(4)

	entries := []LogEntry{
		{Obj: heap.Value(16), Slot: 7},
		{Obj: heap.Value(24), Slot: 9},
	}
	l.Restore(1000, entries)
	if got := l.Base(); got != 1000 {
		t.Fatalf("Base() = %d, want 1000", got)
	}
	if got := l.Len(); got != 1002 {
		t.Fatalf("Len() = %d, want 1002", got)
	}
	if _, ok := l.Pinned(); ok {
		t.Fatal("Restore left the log pinned")
	}
	if got := l.At(1001); got.Slot != 9 {
		t.Fatalf("At(1001).Slot = %d, want 9", got.Slot)
	}
	// Restore copies: mutating the caller's slice must not alias the log.
	entries[0].Slot = 99
	if got := l.At(1000); got.Slot != 99 {
		// aliasing would show 99; a copy shows 7
		if got.Slot != 7 {
			t.Fatalf("At(1000).Slot = %d, want 7", got.Slot)
		}
	} else {
		t.Fatal("Restore aliased the caller's slice")
	}
}

// TestWarmLogAllocatesNothing pins that the log keeps its array: once an
// append/trim loop has grown it, the loop allocates nothing — trimmed
// prefixes are reused, the retained entries moved to the front — and the
// entries keep their sequence numbers. A spike after that steady state is
// still given back: once the loop has cycled through the spike's array, the
// log holds one within four times the most entries the loop retains.
func TestWarmLogAllocatesNothing(t *testing.T) {
	var l MutationLog
	const window, keep = 300, 20
	round := func(appends int) {
		for range appends {
			l.Append(LogEntry{Obj: heap.Value(8), Slot: int32(l.Len())})
		}
		l.TrimTo(l.Len() - keep)
		for seq := l.Base(); seq < l.Len(); seq++ {
			if got := l.At(seq); int64(got.Slot) != seq {
				t.Fatalf("entry %d holds slot %d", seq, got.Slot)
			}
		}
	}
	for range 4 {
		round(window)
	}
	steady := cap(l.buf)
	if n := testing.AllocsPerRun(200, func() { round(window) }); n != 0 {
		t.Fatalf("a warm append/trim round allocates %.1f times, want 0", n)
	}
	if cap(l.buf) != steady {
		t.Fatalf("the warm array went from %d to %d entries", steady, cap(l.buf))
	}

	round(64 * window)
	spike := cap(l.buf)
	for range 4 * spike / window {
		round(window)
	}
	if cap(l.buf) > 4*(window+keep) {
		t.Fatalf("after the loop cycled through a %d-entry spike the log holds a %d-entry array for %d entries", spike, cap(l.buf), window+keep)
	}
}
