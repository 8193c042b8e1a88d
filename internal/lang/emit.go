package lang

import (
	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// bufRoots keeps every open code buffer alive for the duration of a
// compilation, independent of the handle stack's scoped discipline (buffers
// created while compiling a nested function must survive the enclosing
// expression's handle cleanup). It also owns the one byte scratch that grow
// and assemble read whole buffers into.
type bufRoots struct {
	slots   []heap.Value
	scratch []byte
}

// load reads the first n bytes of heap buffer p into the scratch.
func (r *bufRoots) load(m *core.Mutator, p heap.Value, n int) []byte {
	if cap(r.scratch) < n {
		r.scratch = make([]byte, n+n/2)
	}
	m.GetByteRange(p, 0, r.scratch[:n])
	return r.scratch[:n]
}

// VisitRoots implements core.RootSource.
func (r *bufRoots) VisitRoots(v core.RootVisitor) {
	for i := range r.slots {
		v(&r.slots[i])
	}
}

// blockBuf is an open code buffer for one block being compiled. The buffer
// is a mutable byte object on the simulated heap; every emitted instruction
// is written byte by byte through the mutator's (logged) byte-store path,
// and branch backpatching rewrites earlier bytes — this is the Comp
// workload's signature mutation pattern (paper §4.5: "Comp contains many
// mutations to byte data").
type blockBuf struct {
	name  string
	roots *bufRoots
	idx   int // slot in roots holding the KindBytes object
	cap   int // capacity in bytes
	n     int // instructions emitted

	// pending batches encoded instructions before they are stored to the
	// heap buffer, so sequential emission produces one logged mutation
	// per flush rather than one per instruction — ordinary emitter
	// buffering, which also matches a realistic storelist density.
	pending      [flushThreshold]byte
	npending     int
	pendingStart int // byte offset of pending[0] in the heap buffer
}

const initialBlockCap = 16 * bytecode.EncodedSize

// flushThreshold bounds the emission buffer (in instructions).
const flushThreshold = 8 * bytecode.EncodedSize

// newBlockBuf opens the next block's code buffer, rooted in c.bufs. Blocks
// are carved from slabs; a full slab is left to its blocks and a larger one
// started, so earlier blocks' pointers stay valid.
func (c *Compiler) newBlockBuf(name string) *blockBuf {
	if len(c.bufSlab) == cap(c.bufSlab) {
		c.bufSlab = make([]blockBuf, 0, 2*cap(c.bufSlab)+4)
	}
	c.bufSlab = append(c.bufSlab, blockBuf{name: name, roots: c.bufs, cap: initialBlockCap, idx: len(c.bufs.slots)})
	b := &c.bufSlab[len(c.bufSlab)-1]
	c.bufs.slots = append(c.bufs.slots, c.m.MustAllocBytes(b.cap))
	c.blocks = append(c.blocks, b)
	return b
}

// obj returns the buffer's current heap object.
func (b *blockBuf) obj() heap.Value { return b.roots.slots[b.idx] }

// flush stores any pending encoded instructions into the heap buffer.
func (b *blockBuf) flush(m *core.Mutator) {
	if b.npending == 0 {
		return
	}
	m.SetByteRange(b.obj(), b.pendingStart, b.pending[:b.npending])
	b.npending = 0
}

// emit appends one instruction and returns its index.
func (b *blockBuf) emit(m *core.Mutator, ins bytecode.Instr) int {
	off := b.n * bytecode.EncodedSize
	if off+bytecode.EncodedSize > b.cap {
		b.flush(m)
		b.grow(m)
	}
	if b.npending == 0 {
		b.pendingStart = off
	}
	ins.EncodeInto(b.pending[:], b.npending)
	b.npending += bytecode.EncodedSize
	if b.npending == flushThreshold {
		b.flush(m)
	}
	m.Step(3)
	b.n++
	return b.n - 1
}

// grow doubles the buffer, copying through the heap byte paths.
func (b *blockBuf) grow(m *core.Mutator) {
	newCap := b.cap * 2
	np := m.MustAllocBytes(newCap)
	// np is freshly allocated; the old buffer is still rooted, so
	// re-reading it after the allocation is safe.
	op := b.obj()
	used := b.n * bytecode.EncodedSize
	m.SetByteRange(np, 0, b.roots.load(m, op, used))
	m.Step(used / 4)
	b.roots.slots[b.idx] = np
	b.cap = newCap
}

// patch rewrites the instruction at index idx.
func (b *blockBuf) patch(m *core.Mutator, idx int, ins bytecode.Instr) {
	b.flush(m)
	var enc [bytecode.EncodedSize]byte
	ins.EncodeInto(enc[:], 0)
	m.SetByteRange(b.obj(), idx*bytecode.EncodedSize, enc[:])
	m.Step(3)
}

// read decodes the instruction at index idx back out of the heap buffer.
func (b *blockBuf) read(m *core.Mutator, idx int) bytecode.Instr {
	b.flush(m)
	var enc [bytecode.EncodedSize]byte
	m.GetByteRange(b.obj(), idx*bytecode.EncodedSize, enc[:])
	return bytecode.DecodeInstr(enc[:], 0)
}

// assemble decodes the finished buffer, in one range read, into code, which
// the caller carved to exactly b.n instructions.
func (b *blockBuf) assemble(m *core.Mutator, code []bytecode.Instr) bytecode.Block {
	b.flush(m)
	enc := b.roots.load(m, b.obj(), b.n*bytecode.EncodedSize)
	for i := range code {
		code[i] = bytecode.DecodeInstr(enc, i*bytecode.EncodedSize)
	}
	m.Step(b.n)
	return bytecode.Block{Name: b.name, Code: code}
}
