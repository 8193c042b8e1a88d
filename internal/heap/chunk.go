package heap

// Per-mutator nursery chunks. A multi-mutator group gives each mutator
// context a private contiguous span of the nursery to bump-allocate in, so
// allocation needs no synchronization between safepoints: reserving a chunk
// moves the shared Space cursor once, and every allocation after that
// touches only the chunk's private cursor. At pause entry each chunk is
// sealed — its unused remainder becomes a dead filler object — so the
// nursery stays a dense sequence of well-formed objects and address-order
// walks (WalkObjects, Census) remain valid. Fillers are unreachable, so no
// collection ever copies one; they are discarded with the nursery at the
// next minor flip like any other dead object.

// Chunk is one mutator's private bump span. The zero Chunk is inactive:
// every allocation in it fails, and sealing it is a no-op.
type Chunk struct {
	next uint64 // private allocation cursor (arena word index)
	end  uint64 // exclusive upper bound of the span
}

// Active reports whether the chunk still has an open span.
func (c *Chunk) Active() bool { return c.end != 0 }

// ReserveChunk carves a words-sized span out of s for private bump
// allocation. It fails when s lacks room below its soft limit, exactly like
// AllocIn.
func (h *Heap) ReserveChunk(s *Space, words uint64) (Chunk, bool) {
	if words == 0 || s.Next+words > s.Hi {
		return Chunk{}, false
	}
	c := Chunk{next: s.Next, end: s.Next + words}
	s.Next = c.end
	return c, true
}

// AllocInChunk allocates an object of kind k with length field n inside c,
// writing the header and zeroing the payload. It fails when the chunk lacks
// room (or is inactive); the caller then seals the chunk and reserves a
// fresh one.
func (h *Heap) AllocInChunk(c *Chunk, k Kind, n int) (Value, bool) {
	hdr := MakeHeader(k, n)
	need := uint64(hdr.SizeWords())
	if c.next+need > c.end {
		return Nil, false
	}
	hi := c.next
	c.next += need
	h.Arena[hi] = Value(hdr)
	p := ptrFromIndex(hi + 1)
	clear(h.Arena[hi+1 : hi+need])
	return p, true
}

// SealChunk retires c: the unused remainder is overwritten with one dead
// byte-kind filler object (header plus zeroed payload) so the containing
// space walks as a dense object sequence, and the chunk becomes inactive.
// A filler is never reachable, so it is never copied and dies with its
// space. Sealing an inactive chunk does nothing.
func (h *Heap) SealChunk(c *Chunk) {
	if c.Active() {
		if rem := c.end - c.next; rem > 0 {
			h.Arena[c.next] = Value(MakeHeader(KindBytes, int((rem-1)*BytesPerWord)))
			clear(h.Arena[c.next+1 : c.end])
		}
	}
	*c = Chunk{}
}
