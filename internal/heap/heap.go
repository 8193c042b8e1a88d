package heap

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Config sizes a Heap. All quantities are bytes. The paper's experimental
// ranges are nurseries of 0.2–1 MB (parameter N) that can be expanded while
// an incremental collection is pending, and old-generation semispaces large
// enough to hold all live data plus promotion headroom.
type Config struct {
	NurseryBytes    int64 // initial nursery size (the paper's N)
	NurseryCapBytes int64 // hard bound on nursery expansion
	OldSemiBytes    int64 // size of each old-generation semispace
}

// Heap is the simulated two-generation heap: a nursery plus two old
// semispaces over a single flat word arena.
type Heap struct {
	// arena is every word of the heap. On unix it lives in a mapping that is
	// unmapped once the Heap is unreachable (arena_unix.go), so the slice is
	// valid only while its *Heap is; other packages read and write a word
	// through the heap (Word, SetWord) and never hold the slice.
	arena []Value
	// mapping, where the arena is mapped, unmaps it when finalized; only the
	// Heap points to it, so it dies with the Heap.
	mapping *mapping

	Nursery Space
	oldA    Space
	oldB    Space
	oldFrom *Space // current old space (minor collections promote here)
	oldTo   *Space // reserve semispace (major collections copy here)

	// Log-coalescing side table (see stamp.go): a dirty bit per arena word,
	// the indices of the map words to zero at the next BeginLogEpoch (uint32
	// reaches 2 TB of arena), and the pause count EpochHook reports.
	dirty    []uint64
	undo     []uint32
	logEpoch uint32

	// EpochHook, when non-nil, observes every BeginLogEpoch — the trace
	// subsystem uses it to mark coalescing epochs. The heap stays free of
	// trace (and simtime) dependencies; the hook owns its own timestamps.
	EpochHook func(epoch uint32)
}

// spaceWords reports, in words, the nursery's cap (never below the nursery)
// and the size of one old semispace.
func (c Config) spaceWords() (nCap, oCap uint64) {
	return uint64(max(c.NurseryCapBytes, c.NurseryBytes)) / BytesPerWord, uint64(c.OldSemiBytes) / BytesPerWord
}

// ArenaBytes reports the size of the arena New(c) builds: the reserved word
// 0, the nursery at its cap and both old semispaces. Each of c's sizes must be
// below 2^61 bytes.
func (c Config) ArenaBytes() int64 {
	nCap, oCap := c.spaceWords()
	return int64(1+nCap+2*oCap) * BytesPerWord
}

// mappedBytes counts the bytes of arena mappings not yet unmapped
// (arena_unix.go); it stays 0 where the arena is allocated.
var mappedBytes atomic.Int64

// New builds a heap from cfg.
func New(cfg Config) *Heap {
	if cfg.NurseryBytes <= 0 || cfg.OldSemiBytes <= 0 {
		//gclint:allow panicpath -- invariant: construction-time config misuse, not resource exhaustion
		panic("heap: non-positive space size")
	}
	nCap, oCap := cfg.spaceWords()

	// Word 0 is reserved so that Value(0) is never a valid object pointer.
	lo := uint64(1)
	h := &Heap{logEpoch: 1}
	h.newArena(uint64(cfg.ArenaBytes()) / BytesPerWord)
	h.Nursery = Space{Name: "nursery", Lo: lo, Cap: lo + nCap}
	h.oldA = Space{Name: "oldA", Lo: lo + nCap, Cap: lo + nCap + oCap}
	h.oldB = Space{Name: "oldB", Lo: lo + nCap + oCap, Cap: lo + nCap + 2*oCap}
	h.Nursery.Reset()
	h.oldA.Reset()
	h.oldB.Reset()
	h.Nursery.Hi = h.Nursery.Lo
	h.Nursery.SetLimitBytes(cfg.NurseryBytes)
	h.oldA.Hi = h.oldA.Cap
	h.oldB.Hi = h.oldB.Cap
	h.oldFrom = &h.oldA
	h.oldTo = &h.oldB
	return h
}

// OldFrom returns the current old space.
func (h *Heap) OldFrom() *Space { return h.oldFrom }

// OldTo returns the reserve old semispace.
func (h *Heap) OldTo() *Space { return h.oldTo }

// SwapOld exchanges the roles of the old semispaces (a major flip) and
// empties the discarded from-space.
func (h *Heap) SwapOld() {
	h.oldFrom, h.oldTo = h.oldTo, h.oldFrom
	h.oldTo.Reset()
}

// AllocIn allocates an object of kind k with length field n in space s,
// writing the header and zeroing the payload. It returns the object pointer
// and true, or Nil and false when the space lacks room below its soft limit.
func (h *Heap) AllocIn(s *Space, k Kind, n int) (Value, bool) {
	hdr := MakeHeader(k, n)
	need := uint64(hdr.SizeWords())
	if s.Next+need > s.Hi {
		return Nil, false
	}
	hi := s.Next
	s.Next += need
	h.arena[hi] = Value(hdr)
	p := ptrFromIndex(hi + 1)
	clear(h.arena[hi+1 : hi+need])
	return p, true
}

// RawHeader returns the raw word in p's header slot, which is either a
// descriptor or a forwarding pointer.
func (h *Heap) RawHeader(p Value) Value { return h.arena[p.index()-1] }

// IsForwarded reports whether p's header slot holds a forwarding pointer.
func (h *Heap) IsForwarded(p Value) bool { return !IsHeader(h.RawHeader(p)) }

// ForwardAddr returns the replica address stored in p's header slot. It is
// only meaningful when IsForwarded(p).
func (h *Heap) ForwardAddr(p Value) Value { return h.RawHeader(p) }

// SetForward overwrites p's header word with a forwarding pointer to dst,
// the non-destructive copy trick of paper §3.2: the payload stays intact so
// the mutator can keep using the original.
func (h *Heap) SetForward(p, dst Value) {
	if !dst.IsPtr() {
		//gclint:allow panicpath -- invariant: a non-pointer forwarding word is collector corruption
		panic("heap: forwarding to non-pointer")
	}
	h.arena[p.index()-1] = dst
}

// HeaderOf returns p's descriptor, following forwarding chains (at most two
// hops: nursery→old-from→old-to). This is the mutator's getheader operation
// (paper fig. 4); callers charge the forwarding-check cost.
func (h *Heap) HeaderOf(p Value) Header {
	w := h.RawHeader(p)
	for !IsHeader(w) {
		w = h.RawHeader(w)
	}
	return Header(w)
}

// Word returns arena word i raw: a header, a forwarding pointer or a
// payload word, whatever the slot holds.
func (h *Heap) Word(i uint64) Value { return h.arena[i] }

// SetWord overwrites arena word i, raw: no barrier, no dirty bit.
func (h *Heap) SetWord(i uint64, v Value) { h.arena[i] = v }

// Load reads payload word i of object p. No forwarding check: under the
// from-space invariant the mutator always reads the original object.
func (h *Heap) Load(p Value, i int) Value { return h.arena[p.index()+uint64(i)] }

// Store writes payload word i of object p. The write barrier lives above
// this in the mutator; Store itself is raw.
func (h *Heap) Store(p Value, i int, v Value) { h.arena[p.index()+uint64(i)] = v }

// LoadByte reads byte i of a byte-kind object (little-endian packing).
func (h *Heap) LoadByte(p Value, i int) byte {
	w := h.arena[p.index()+uint64(i/BytesPerWord)]
	return byte(w >> (uint(i%BytesPerWord) * 8))
}

// StoreByte writes byte i of a byte-kind object.
func (h *Heap) StoreByte(p Value, i int, b byte) {
	idx := p.index() + uint64(i/BytesPerWord)
	sh := uint(i%BytesPerWord) * 8
	w := uint64(h.arena[idx])
	w = w&^(uint64(0xff)<<sh) | uint64(b)<<sh
	h.arena[idx] = Value(w)
}

// Bytes copies the payload of a byte-kind object into a fresh Go slice.
func (h *Heap) Bytes(p Value) []byte {
	out := make([]byte, h.HeaderOf(p).Len())
	h.LoadBytes(p, 0, out)
	return out
}

// SetBytes writes b into the payload of a byte-kind object starting at 0.
func (h *Heap) SetBytes(p Value, b []byte) { h.StoreBytes(p, 0, b) }

// LoadBytes reads len(dst) payload bytes of p starting at byte off.
func (h *Heap) LoadBytes(p Value, off int, dst []byte) { h.moveBytes(p, off, dst, false) }

// StoreBytes writes src into p's payload from byte off on, raw like StoreByte.
func (h *Heap) StoreBytes(p Value, off int, src []byte) { h.moveBytes(p, off, src, true) }

// moveBytes moves len(b) bytes between b and p's payload from byte off on,
// into the heap if store is set, else out of it: like CopyPayloadBytes, the
// aligned body by whole words and only the unaligned head and tail (at most
// seven bytes each) by bytes, bit-identical to a LoadByte/StoreByte loop.
func (h *Heap) moveBytes(p Value, off int, b []byte, store bool) {
	for len(b) > 0 {
		if off%BytesPerWord != 0 || len(b) < BytesPerWord {
			if store {
				h.StoreByte(p, off, b[0])
			} else {
				b[0] = h.LoadByte(p, off)
			}
			b, off = b[1:], off+1
			continue
		}
		w := &h.arena[p.index()+uint64(off/BytesPerWord)]
		if store {
			*w = Value(binary.LittleEndian.Uint64(b))
		} else {
			binary.LittleEndian.PutUint64(b, uint64(*w))
		}
		b, off = b[BytesPerWord:], off+BytesPerWord
	}
}

// CopyPayloadBytes copies n payload bytes starting at byte offset off from
// src into the same offsets of dst — the block-copy path for reapplying a
// logged byte-range mutation to a replica. The word-aligned body moves as a
// single copy() over the arena; only the unaligned head and tail (at most
// seven bytes each) fall back to byte stores, so the result is bit-identical
// to a byte-at-a-time loop at memmove speed.
func (h *Heap) CopyPayloadBytes(dst, src Value, off, n int) {
	for n > 0 && off%BytesPerWord != 0 {
		h.StoreByte(dst, off, h.LoadByte(src, off))
		off++
		n--
	}
	if words := uint64(n / BytesPerWord); words > 0 {
		si := src.index() + uint64(off/BytesPerWord)
		di := dst.index() + uint64(off/BytesPerWord)
		copy(h.arena[di:di+words], h.arena[si:si+words])
		off += int(words) * BytesPerWord
		n -= int(words) * BytesPerWord
	}
	for ; n > 0; n-- {
		h.StoreByte(dst, off, h.LoadByte(src, off))
		off++
	}
}

// CopyObject copies the object at src (whose descriptor must still be
// intact) into space dst, returning the replica pointer. The original is
// left untouched — installing the forwarding pointer is the caller's
// decision, which is what makes the copy non-destructive.
func (h *Heap) CopyObject(src Value, dst *Space) (Value, bool) {
	hdr := Header(h.RawHeader(src))
	if !IsHeader(Value(hdr)) {
		//gclint:allow panicpath -- invariant: callers check IsForwarded before copying
		panic("heap: CopyObject on forwarded object")
	}
	need := uint64(hdr.SizeWords())
	if dst.Next+need > dst.Hi {
		return Nil, false
	}
	di := dst.Next
	dst.Next += need
	si := src.index() - 1
	copy(h.arena[di:di+need], h.arena[si:si+need])
	return ptrFromIndex(di + 1), true
}

// ReserveReplica is the first half of CopyObject for a collector that may
// fill the replica over several pauses: it reserves room for all of src at
// dst's frontier, gives the replica src's descriptor and installs the
// forwarding pointer in src, leaving the payload for CopyWords. Reserving
// everything at once is what lets a continuation never run out of space, and
// forwarding at once is what keeps every "is it replicated" test — the write
// barrier's included — true from the first word on. The replica's payload
// holds whatever the space held before: nothing may read it ahead of the copy.
func (h *Heap) ReserveReplica(src Value, dst *Space) (Value, bool) {
	hdr := h.RawHeader(src)
	if !IsHeader(hdr) {
		//gclint:allow panicpath -- invariant: callers check IsForwarded before copying
		panic("heap: ReserveReplica on forwarded object")
	}
	need := uint64(Header(hdr).SizeWords())
	if dst.Next+need > dst.Hi {
		return Nil, false
	}
	di := dst.Next
	dst.Next += need
	h.arena[di] = hdr
	replica := ptrFromIndex(di + 1)
	h.SetForward(src, replica)
	return replica, true
}

// CopyWords copies payload words [from, from+n) of src into the same slots
// of dst, a replica ReserveReplica made of it.
func (h *Heap) CopyWords(dst, src Value, from, n int) {
	si, di := src.index()+uint64(from), dst.index()+uint64(from)
	copy(h.arena[di:di+uint64(n)], h.arena[si:si+uint64(n)])
}

// WalkObjects visits the objects of s in address order, calling f with each
// object pointer and descriptor. Walking a space containing forwarded
// objects is not possible (their sizes are gone with their headers), so this
// is only valid for to-spaces and for quiescent heaps; it exists for
// invariant checking and tests.
func (h *Heap) WalkObjects(s *Space, f func(p Value, hdr Header) bool) {
	idx := s.Lo
	for idx < s.Next {
		w := h.arena[idx]
		if !IsHeader(w) {
			//gclint:allow panicpath -- invariant: walked spaces hold replicas, which are never forwarded
			panic(fmt.Sprintf("heap: WalkObjects hit forwarding pointer at %#x in %s", idx, s.Name))
		}
		hdr := Header(w)
		if !f(ptrFromIndex(idx+1), hdr) {
			return
		}
		idx += uint64(hdr.SizeWords())
	}
}

// CensusEntry summarises the live objects of one kind in a space.
type CensusEntry struct {
	Count int64
	Bytes int64
}

// Census walks the allocated objects of the given spaces and tallies them
// by kind. It is only valid when no objects in those spaces carry
// forwarding pointers (i.e. at collector-quiescent points); it exists for
// tools and tests, not for the collectors themselves.
func (h *Heap) Census(spaces ...*Space) map[Kind]CensusEntry {
	out := make(map[Kind]CensusEntry)
	for _, s := range spaces {
		h.WalkObjects(s, func(p Value, hdr Header) bool {
			e := out[hdr.Kind()]
			e.Count++
			e.Bytes += hdr.SizeBytes()
			out[hdr.Kind()] = e
			return true
		})
	}
	return out
}
