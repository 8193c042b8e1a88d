//go:build unix

package heap

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// arenaMapped reports that newArena maps the arena rather than allocating it.
const arenaMapped = true

// mapping is an arena's anonymous mapping, unmapped by its finalizer.
type mapping struct{ mem []byte }

// newArena gives h an arena of the given number of words, and the arena's
// dirty map, from one anonymous private mapping. The kernel hands out zero
// pages on first touch, so a heap costs nothing to set up and only the words
// a run writes become resident. Nothing reads a word before writing it —
// AllocIn writes every word it hands out, a copy writes its replica's, and a
// collector scans only below a space's allocation pointer — so the bulk of
// each semispace is never faulted in at all. The mapping is not Go memory:
// the garbage collector neither zeroes nor scans it. The finalizer sits on
// h.mapping rather than on h because a finalizer never runs on an object in
// a cycle, and h can sit in one, such as one through an EpochHook closure;
// the mapping points at nothing the Go heap holds.
func (h *Heap) newArena(words uint64) {
	dirty := (words + 63) / 64
	mem, err := syscall.Mmap(-1, 0, int((words+dirty)*BytesPerWord),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		//gclint:allow panicpath -- invariant: the host refused the arena's address space at construction, where make would have died out of memory; not the simulated heap's exhaustion
		panic(fmt.Sprintf("heap: mapping a %d-word arena: %v", words, err))
	}
	base := unsafe.Pointer(unsafe.SliceData(mem))
	h.arena = unsafe.Slice((*Value)(base), words)
	h.dirty = unsafe.Slice((*uint64)(unsafe.Add(base, words*BytesPerWord)), dirty)
	mappedBytes.Add(int64(len(mem)))
	h.mapping = &mapping{mem: mem}
	runtime.SetFinalizer(h.mapping, (*mapping).unmap)
}

// unmap releases the mapping once its Heap is unreachable.
func (m *mapping) unmap() {
	if err := syscall.Munmap(m.mem); err != nil {
		//gclint:allow panicpath -- invariant: the mapping was made by newArena and is unmapped once
		panic(fmt.Sprintf("heap: unmapping the arena: %v", err))
	}
	mappedBytes.Add(-int64(len(m.mem)))
}
