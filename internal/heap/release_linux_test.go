package heap

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// ResidentPages reports, of the pages wholly inside arena words [lo, hi) —
// the pages release gives back — how many are resident, and how many there
// are. mincore reads this process's own page table; it changes nothing.
func ResidentPages(t testing.TB, h *Heap, lo, hi uint64) (resident, pages int) {
	t.Helper()
	page := uint64(os.Getpagesize())
	start := (lo*BytesPerWord + page - 1) / page * page
	end := hi * BytesPerWord / page * page
	if start >= end {
		return 0, 0
	}
	vec := make([]byte, (end-start)/page)
	mem := h.mapping.mem[start:end]
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(unsafe.SliceData(mem))), uintptr(len(mem)), uintptr(unsafe.Pointer(unsafe.SliceData(vec)))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	for _, v := range vec {
		resident += int(v & 1)
	}
	return resident, len(vec)
}

// TestSwapOldReleasesWholePages fills a semispace whose ends both fall
// inside a page, with a live word of each neighbour — the nursery's last,
// the other semispace's first — on those boundary pages. The flip that
// discards it must drop every page wholly inside it and keep both
// neighbours' words: rounding the range outward zeroes them, and skipping
// the release leaves the pages resident.
func TestSwapOldReleasesWholePages(t *testing.T) {
	h := testHeap()
	from := h.OldFrom()
	page := uint64(os.Getpagesize())
	if from.Lo*BytesPerWord%page == 0 || from.Cap*BytesPerWord%page == 0 {
		t.Fatalf("%v starts or ends on a page boundary; the test needs both ends shared", from)
	}
	below, above := from.Lo-1, from.Cap
	h.arena[below], h.arena[above] = FromInt(-1), FromInt(-2)
	for i := from.Lo; i < from.Cap; i++ {
		h.arena[i] = FromInt(int64(i))
	}
	from.Next = from.Cap
	lo, hi := from.Lo, from.Cap
	if res, pages := ResidentPages(t, h, lo, hi); pages == 0 || res != pages {
		t.Fatalf("before the flip %d of %d pages are resident, want all", res, pages)
	}

	h.SwapOld()
	if res, pages := ResidentPages(t, h, lo, hi); res != 0 {
		t.Fatalf("after the flip %d of %d pages of the discarded space are resident, want none", res, pages)
	}
	if first := (lo*BytesPerWord + page - 1) / page * page / BytesPerWord; h.arena[first] != 0 {
		t.Fatalf("released word %d reads %v, want 0", first, h.arena[first])
	}
	if h.arena[below] != FromInt(-1) || h.arena[above] != FromInt(-2) {
		t.Fatalf("neighbours' words read %v and %v after the flip, want -1 and -2", h.arena[below], h.arena[above])
	}
}
