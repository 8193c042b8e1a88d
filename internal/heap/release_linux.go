package heap

import (
	"fmt"
	"syscall"
)

// release gives the kernel back the pages wholly inside arena words
// [lo, hi), which fault back in as zeros. A page the range covers only in
// part stays: the spaces are not page-aligned, so a neighbour's live words
// may share it. MADV_DONTNEED drops the pages at once, where MADV_FREE's
// would still count as resident until the kernel wanted them.
func (h *Heap) release(lo, hi uint64) {
	page := uint64(syscall.Getpagesize())
	start := (lo*BytesPerWord + page - 1) / page * page
	end := hi * BytesPerWord / page * page
	if start >= end {
		return
	}
	if err := syscall.Madvise(h.mapping.mem[start:end], syscall.MADV_DONTNEED); err != nil {
		//gclint:allow panicpath -- invariant: the range lies page-aligned inside the arena's own mapping
		panic(fmt.Sprintf("heap: releasing arena bytes [%#x, %#x): %v", start, end, err))
	}
}
