// Package bytecode defines the instruction set of the MiniML virtual
// machine: a compact stack machine with heap-allocated environments and
// call frames, mirroring the stackless, allocation-heavy execution model of
// SML/NJ that the paper's workloads run on (§3.1: "the runtime system has
// no stack, heavy demands are placed on the storage allocation system").
package bytecode

import (
	"fmt"
	"strings"
)

// Op is an instruction opcode.
type Op uint8

// Opcodes. Conventions: the operand stack grows rightward; every
// expression leaves exactly one value. Within a function, bindings form a
// chain of three-word heap records (parent, value), so local access is
// (hops, slot 1) and every binding allocates — the dominant object shape
// the paper measured in SML/NJ. Across function boundaries the compiler
// performs flat closure conversion: a closure captures exactly the values
// of its free variables (recursive fun-group bindings are captured as
// their mutable environment records — boxes — and dereferenced with a
// projection), so dead scopes are never retained, as in SML/NJ.
const (
	OpNop       Op = iota
	OpConstInt     // push immediate integer A
	OpConstStr     // push preallocated string literal A
	OpLocal        // push value at A hops up the environment chain
	OpLocalRec     // push the environment record itself at A hops (boxed bindings)
	OpFree         // push free-variable slot A of the current closure
	OpClosure      // pop B captured values; push new closure over block A
	OpCall         // pop arg, closure; push heap frame; enter closure
	OpTailCall     // pop arg, closure; enter closure reusing the frame
	OpReturn       // pop frame; resume caller (thread exits on empty frame)
	OpJump         // unconditional jump to A
	OpJumpIfNot    // pop; jump to A when false (immediate 0)
	OpBin          // pop b, a; push a <binop A> b
	OpNot          // pop; push logical negation
	OpNeg          // pop; push arithmetic negation
	OpMkTuple      // pop A values; push record
	OpProj         // pop tuple; push field A
	OpMkRef        // pop v; push new ref cell
	OpDeref        // pop ref; push contents
	OpAssign       // pop v, ref; store (write barrier + mutation log); push unit
	OpMkArray      // pop init, n; push new array of n inits
	OpAGet         // pop i, arr; push element
	OpASet         // pop v, i, arr; store (logged); push unit
	OpALen         // pop arr; push length
	OpBind         // pop v; extend environment with v
	OpBindHole     // extend environment with a mutable hole (recursive bindings)
	OpPatch        // pop v; store v into the hole A hops up the chain (logged mutation)
	OpEnvPop       // discard A environment records
	OpPopN         // pop A values
	OpSwapPop      // pop r, v; push r (drop the value under the top)
	OpDup          // duplicate top of stack
	OpTestInt      // pop; if != immediate A jump to B
	OpTestNil      // pop; if not nil (immediate 0) jump to A
	OpTestCons     // if top not a pair jump to A; else pop, push tail, head
	OpTestTuple    // pop tuple of A fields; push fields so slot 0 is on top (jump A2=B on mismatch)
	OpPrint        // pop string; append to program output; push unit
	OpItoS         // pop int; push decimal string
	OpStoI         // pop string; push integer value (0 on parse failure)
	OpSize         // pop string; push length
	OpSub          // pop i, s; push byte i of string s as int
	OpSpawn        // pop closure; schedule new thread running it; push unit
	OpYield        // reschedule; push unit
	OpNewSV        // push a fresh empty synchronising variable
	OpPutSV        // pop v, sv; fill sv (error if already full); push unit
	OpTakeSV       // pop sv; block until full; push its value
	OpHalt         // stop the whole program
	numOps
)

var opNames = [numOps]string{
	"nop", "constint", "conststr", "local", "localrec", "free", "closure", "call", "tailcall",
	"return", "jump", "jumpifnot", "bin", "not", "neg", "mktuple", "proj",
	"mkref", "deref", "assign", "mkarray", "aget", "aset", "alen", "bind",
	"bindhole", "patch", "envpop", "popn", "swappop", "dup", "testint", "testnil",
	"testcons", "testtuple", "print", "itos", "stoi", "size", "sub",
	"spawn", "yield", "newsv", "putsv", "takesv", "halt",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// BinOp selects the operation of OpBin.
type BinOp int32

// Binary operators.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinLt
	BinLe
	BinGt
	BinGe
	BinEq // polymorphic equality (uses getheader; paper §3.2)
	BinNe
	BinCons
	BinStrCat
	numBinOps
)

var binNames = [numBinOps]string{
	"+", "-", "*", "/", "mod", "<", "<=", ">", ">=", "=", "<>", "::", "^",
}

// String names the operator.
func (b BinOp) String() string {
	if b >= 0 && int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", int(b))
}

// Instr is one instruction. A and B are operands whose meaning depends on
// the opcode (jump target, literal, arity, hop count, ...).
type Instr struct {
	Op   Op
	A, B int32
}

func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpCall, OpTailCall, OpReturn, OpNot, OpNeg, OpMkRef, OpDeref,
		OpAssign, OpMkArray, OpAGet, OpASet, OpALen, OpBind, OpSwapPop, OpDup,
		OpPrint, OpItoS, OpStoI, OpSize, OpSub, OpSpawn, OpYield, OpNewSV,
		OpPutSV, OpTakeSV, OpHalt:
		return i.Op.String()
	case OpBin:
		return fmt.Sprintf("bin %s", BinOp(i.A))
	case OpClosure:
		return fmt.Sprintf("closure %d free %d", i.A, i.B)
	case OpTestInt, OpTestTuple:
		return fmt.Sprintf("%s %d -> %d", i.Op, i.A, i.B)
	default:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	}
}

// Block is one compiled function body (or the program entry).
type Block struct {
	Name string
	Code []Instr
}

// Program is a compiled MiniML program.
type Program struct {
	Blocks  []Block
	Strings []string // literal pool, preallocated on the heap at load time
	Entry   int      // index of the entry block
}

// EncodedSize is the byte footprint of one instruction in the compiler's
// heap code buffers (opcode + two 32-bit operands).
const EncodedSize = 9

// EncodeInto writes the instruction into buf at off using the code-buffer
// encoding. buf must have room for EncodedSize bytes.
func (i Instr) EncodeInto(buf []byte, off int) {
	buf[off] = byte(i.Op)
	putInt32(buf, off+1, i.A)
	putInt32(buf, off+5, i.B)
}

// DecodeInstr reads an instruction back from a code buffer.
func DecodeInstr(buf []byte, off int) Instr {
	return Instr{
		Op: Op(buf[off]),
		A:  getInt32(buf, off+1),
		B:  getInt32(buf, off+5),
	}
}

func putInt32(b []byte, off int, v int32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

func getInt32(b []byte, off int) int32 {
	return int32(b[off]) | int32(b[off+1])<<8 | int32(b[off+2])<<16 | int32(b[off+3])<<24
}

// Disassemble renders the program as text.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	for bi, blk := range p.Blocks {
		marker := ""
		if bi == p.Entry {
			marker = " (entry)"
		}
		fmt.Fprintf(&sb, "block %d %s%s:\n", bi, blk.Name, marker)
		for pc, ins := range blk.Code {
			fmt.Fprintf(&sb, "  %4d  %s\n", pc, ins)
		}
	}
	if len(p.Strings) > 0 {
		fmt.Fprintf(&sb, "strings:\n")
		for i, s := range p.Strings {
			fmt.Fprintf(&sb, "  %4d  %q\n", i, s)
		}
	}
	return sb.String()
}
