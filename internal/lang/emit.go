package lang

import (
	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// VisitRoots implements core.RootSource: every open code buffer stays alive
// for the duration of a compilation, independent of the handle stack's scoped
// discipline (buffers created while compiling a nested function must survive
// the enclosing expression's handle cleanup).
func (c *Compiler) VisitRoots(v core.RootVisitor) {
	for i := range c.slots {
		v(&c.slots[i])
	}
}

// load reads the first n bytes of heap buffer p into the scratch. grow reads
// a whole buffer before doubling it, so a scratch too small for n is replaced
// by one of 2n, which holds the next doubling's read as well: a buffer that
// doubles k times past the window costs about k/2 allocations.
func (c *Compiler) load(p heap.Value, n int) []byte {
	if cap(c.scratch) < n {
		c.scratch = make([]byte, 2*n)
	}
	c.m.GetByteRange(p, 0, c.scratch[:n])
	return c.scratch[:n]
}

// blockBuf is an open code buffer for one block being compiled. The buffer
// is a mutable byte object on the simulated heap; every emitted instruction
// is written byte by byte through the mutator's (logged) byte-store path,
// and branch backpatching rewrites earlier bytes — this is the Comp
// workload's signature mutation pattern (paper §4.5: "Comp contains many
// mutations to byte data").
type blockBuf struct {
	name string
	c    *Compiler
	idx  int // slot in c.slots holding the KindBytes object
	cap  int // capacity in bytes
	n    int // instructions emitted

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

// newBlockBuf opens the next block's code buffer, rooted in c.slots. Blocks
// are carved from the one array the census sized, so earlier blocks'
// pointers stay valid.
func (c *Compiler) newBlockBuf(name string) *blockBuf {
	if len(c.blocks) == cap(c.blocks) { // an append would strand the open blocks
		panic("lang: more blocks than the parse built functions")
	}
	c.blocks = append(c.blocks, blockBuf{name: name, c: c, cap: initialBlockCap, idx: len(c.slots)})
	c.slots = append(c.slots, c.m.MustAllocBytes(initialBlockCap))
	return &c.blocks[len(c.blocks)-1]
}

// obj returns the buffer's current heap object.
func (b *blockBuf) obj() heap.Value { return b.c.slots[b.idx] }

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
	m.SetByteRange(np, 0, b.c.load(op, used))
	m.Step(used / 4)
	b.c.slots[b.idx] = np
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

// assemble decodes the finished buffer into code, which the caller carved
// to exactly b.n instructions, reading it a window at a time.
func (b *blockBuf) assemble(m *core.Mutator, code []bytecode.Instr) bytecode.Block {
	b.flush(m)
	for i := 0; i < b.n; {
		k := min(b.n-i, len(b.c.window)/bytecode.EncodedSize)
		enc := b.c.window[:k*bytecode.EncodedSize]
		m.GetByteRange(b.obj(), i*bytecode.EncodedSize, enc)
		for j := 0; j < k; j++ {
			code[i+j] = bytecode.DecodeInstr(enc, j*bytecode.EncodedSize)
		}
		i += k
	}
	m.Step(b.n)
	return bytecode.Block{Name: b.name, Code: code}
}
