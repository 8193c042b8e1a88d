// Package vm executes MiniML bytecode on the simulated heap. The machine
// mirrors SML/NJ's execution model as the paper describes it (§3.1): there
// is no runtime stack to speak of — environments and call frames are heap
// records allocated on every binding and every non-tail call, placing heavy
// demands on the allocator, which is exactly the workload the collectors
// are measured under. Green threads with synchronising variables provide
// the futures that the Sort benchmark is built from.
package vm

import (
	"bytes"
	"fmt"
	"strconv"

	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// Quantum is the number of instructions a thread runs before the scheduler
// rotates. Deterministic scheduling keeps every run reproducible across
// collector configurations.
const Quantum = 200

// frame record slots: {prev, env, closure, block, pc, sp}.
const (
	framePrev = iota
	frameEnv
	frameClo
	frameBlock
	framePC
	frameSP
	frameSlots
)

type threadStatus int

const (
	statusRunnable threadStatus = iota
	statusBlocked
	statusDone
)

// Thread is one green thread.
type Thread struct {
	stack  []heap.Value
	env    heap.Value
	clo    heap.Value // current closure (free-variable access)
	frame  heap.Value
	block  int
	pc     int
	status threadStatus
}

func (t *Thread) push(v heap.Value) { t.stack = append(t.stack, v) }

func (t *Thread) pop() heap.Value {
	v := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	return v
}

// peek returns the value i slots below the top (0 = top).
func (t *Thread) peek(i int) heap.Value { return t.stack[len(t.stack)-1-i] }

// RuntimeError is a MiniML-level failure (match failure, type confusion,
// division by zero, deadlock).
type RuntimeError struct {
	Msg   string
	Block int
	PC    int
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("miniml runtime error at block %d pc %d: %s", e.Block, e.PC, e.Msg)
}

// VM runs one program.
type VM struct {
	m    *core.Mutator
	prog *bytecode.Program

	strings []heap.Value // preallocated literal pool (roots)
	threads []*Thread
	next    int // scheduler cursor

	// Output collects everything the program printed.
	Output bytes.Buffer

	// Steps counts executed instructions.
	Steps int64
	// MaxSteps aborts runaway programs; zero means unlimited.
	MaxSteps int64

	halted bool
	err    error
}

// New loads prog into a VM over m. The VM registers itself as a root
// source; the literal pool is allocated up front. If the heap is already
// too small for the literal pool the VM is constructed halted, and Run
// reports the typed *core.OOMError.
func New(m *core.Mutator, prog *bytecode.Program) *VM {
	v := &VM{m: m, prog: prog}
	m.Roots.Register(v)
	for _, s := range prog.Strings {
		p, err := m.AllocString([]byte(s))
		if err != nil {
			v.err = fmt.Errorf("miniml literal pool: %w", err)
			v.halted = true
			return v
		}
		v.strings = append(v.strings, p)
	}
	v.threads = append(v.threads, &Thread{block: prog.Entry, env: heap.FromInt(0)})
	return v
}

// oom records heap exhaustion as the machine's terminal error. The typed
// *core.OOMError stays extractable through errors.As; the machine halts —
// a MiniML program cannot observe or recover a failed allocation.
func (v *VM) oom(t *Thread, err error) {
	v.err = fmt.Errorf("miniml heap exhausted at block %d pc %d: %w", t.block, t.pc, err)
	v.halted = true
}

// alloc allocates on behalf of the running thread; ok reports success.
// On exhaustion the VM halts with the allocator's typed error.
func (v *VM) alloc(t *Thread, k heap.Kind, n int) (heap.Value, bool) {
	p, err := v.m.Alloc(k, n)
	if err != nil {
		v.oom(t, err)
		return heap.Nil, false
	}
	return p, true
}

// allocString is alloc for string payloads.
func (v *VM) allocString(t *Thread, b []byte) (heap.Value, bool) {
	p, err := v.m.AllocString(b)
	if err != nil {
		v.oom(t, err)
		return heap.Nil, false
	}
	return p, true
}

// VisitRoots exposes every heap pointer the VM holds.
func (v *VM) VisitRoots(visit core.RootVisitor) {
	for i := range v.strings {
		visit(&v.strings[i])
	}
	for _, t := range v.threads {
		if t.status == statusDone {
			continue
		}
		visit(&t.env)
		visit(&t.clo)
		visit(&t.frame)
		for i := range t.stack {
			visit(&t.stack[i])
		}
	}
}

// Run executes until the program halts or fails.
func (v *VM) Run() error {
	for !v.halted {
		t := v.pickThread()
		if t == nil {
			if v.anyBlocked() {
				return &RuntimeError{Msg: "deadlock: all threads blocked"}
			}
			return &RuntimeError{Msg: "program ended without halting"}
		}
		v.runSlice(t, Quantum)
		if v.err != nil {
			return v.err
		}
	}
	return v.err
}

func (v *VM) pickThread() *Thread {
	n := len(v.threads)
	for i := 0; i < n; i++ {
		t := v.threads[(v.next+i)%n]
		switch t.status {
		case statusRunnable:
			v.next = (v.next + i + 1) % n
			return t
		case statusBlocked:
			// A blocked thread polls its condition when scheduled.
			if v.svReady(t) {
				v.next = (v.next + i + 1) % n
				t.status = statusRunnable
				return t
			}
		}
	}
	return nil
}

func (v *VM) anyBlocked() bool {
	for _, t := range v.threads {
		if t.status == statusBlocked {
			return true
		}
	}
	return false
}

// svReady reports whether the sync variable a blocked thread waits on has
// been filled. The sv is on top of the blocked thread's stack.
func (v *VM) svReady(t *Thread) bool {
	sv := t.peek(0)
	return v.m.Get(sv, 0) != heap.FromInt(0)
}

// checkClosure validates a callee: it must be a closure object whose code
// index is a real block. Untyped programs can apply arbitrary values;
// failing here keeps type confusion a MiniML-level error rather than a
// crash of the host.
func (v *VM) checkClosure(t *Thread, val heap.Value, what string) bool {
	if !val.IsPtr() || v.m.Kind(val) != heap.KindClosure {
		v.fail(t, "%s of non-closure %v", what, val)
		return false
	}
	blk := v.m.Get(val, 0)
	if !blk.IsInt() || blk.Int() < 0 || blk.Int() >= int64(len(v.prog.Blocks)) {
		v.fail(t, "%s of corrupt closure (code %v)", what, blk)
		return false
	}
	return true
}

func (v *VM) fail(t *Thread, format string, args ...any) {
	v.err = &RuntimeError{Msg: fmt.Sprintf(format, args...), Block: t.block, PC: t.pc}
	v.halted = true
}

// runSlice interprets up to quantum instructions on t.
func (v *VM) runSlice(t *Thread, quantum int) {
	m := v.m
	code := v.prog.Blocks[t.block].Code
	for i := 0; i < quantum; i++ {
		if t.pc >= len(code) {
			v.fail(t, "fell off end of block %d", t.block)
			return
		}
		ins := code[t.pc]
		t.pc++
		v.Steps++
		m.Step(1)
		if v.MaxSteps > 0 && v.Steps > v.MaxSteps {
			v.fail(t, "instruction budget exhausted (%d)", v.MaxSteps)
			return
		}

		// The main dispatch: gclint verifies every opcode constant is
		// handled, so a new instruction cannot silently hit the default.
		//gclint:dispatch
		switch ins.Op {
		case bytecode.OpNop:

		case bytecode.OpConstInt:
			t.push(heap.FromInt(int64(ins.A)))

		case bytecode.OpConstStr:
			t.push(v.strings[ins.A])

		case bytecode.OpLocal:
			e := t.env
			for h := int32(0); h < ins.A; h++ {
				e = m.Get(e, 0)
			}
			t.push(m.Get(e, 1))

		case bytecode.OpLocalRec:
			e := t.env
			for h := int32(0); h < ins.A; h++ {
				e = m.Get(e, 0)
			}
			t.push(e)

		case bytecode.OpFree:
			t.push(m.Get(t.clo, 1+int(ins.A)))

		case bytecode.OpClosure:
			// Captures sit on the stack, first free variable deepest.
			n := int(ins.B)
			p, ok := v.alloc(t, heap.KindClosure, 1+n)
			if !ok {
				return
			}
			m.Init(p, 0, heap.FromInt(int64(ins.A)))
			for i := 0; i < n; i++ {
				m.Init(p, 1+i, t.peek(n-1-i))
			}
			t.stack = t.stack[:len(t.stack)-n]
			t.push(p)

		case bytecode.OpCall:
			// Stack: [closure, arg]. Allocate the frame first, pin it on
			// the stack while the environment record is allocated, then
			// re-read everything — allocation can trigger a flip.
			if !v.checkClosure(t, t.peek(1), "call") {
				return
			}
			savedSP := len(t.stack) - 2
			f, ok := v.alloc(t, heap.KindRecord, frameSlots)
			if !ok {
				return
			}
			m.Init(f, framePrev, t.frame)
			m.Init(f, frameEnv, t.env)
			m.Init(f, frameClo, t.clo)
			m.Init(f, frameBlock, heap.FromInt(int64(t.block)))
			m.Init(f, framePC, heap.FromInt(int64(t.pc)))
			m.Init(f, frameSP, heap.FromInt(int64(savedSP)))
			t.push(f)
			e, ok := v.alloc(t, heap.KindRecord, 2)
			if !ok {
				return
			}
			f = t.pop()
			arg, clo := t.pop(), t.pop()
			m.Init(e, 0, heap.FromInt(0)) // base of the callee's local chain
			m.Init(e, 1, arg)
			t.frame = f
			t.env = e
			t.clo = clo
			t.block = int(m.Get(clo, 0).Int())
			t.pc = 0
			code = v.prog.Blocks[t.block].Code

		case bytecode.OpTailCall:
			if !v.checkClosure(t, t.peek(1), "tail call") {
				return
			}
			e, ok := v.alloc(t, heap.KindRecord, 2)
			if !ok {
				return
			}
			arg, clo := t.pop(), t.pop()
			m.Init(e, 0, heap.FromInt(0))
			m.Init(e, 1, arg)
			// Discard anything this call left pending on the stack.
			sp := 0
			if t.frame != heap.Nil {
				sp = int(m.Get(t.frame, frameSP).Int())
			}
			t.stack = t.stack[:sp]
			t.env = e
			t.clo = clo
			t.block = int(m.Get(clo, 0).Int())
			t.pc = 0
			code = v.prog.Blocks[t.block].Code

		case bytecode.OpReturn:
			result := t.pop()
			if t.frame == heap.Nil {
				t.status = statusDone
				t.stack = t.stack[:0]
				return
			}
			f := t.frame
			sp := int(m.Get(f, frameSP).Int())
			t.stack = t.stack[:sp]
			t.push(result)
			t.env = m.Get(f, frameEnv)
			t.clo = m.Get(f, frameClo)
			t.block = int(m.Get(f, frameBlock).Int())
			t.pc = int(m.Get(f, framePC).Int())
			t.frame = m.Get(f, framePrev)
			code = v.prog.Blocks[t.block].Code

		case bytecode.OpJump:
			t.pc = int(ins.A)

		case bytecode.OpJumpIfNot:
			if t.pop() == heap.FromInt(0) {
				t.pc = int(ins.A)
			}

		case bytecode.OpBin:
			if !v.binop(t, bytecode.BinOp(ins.A)) {
				return
			}

		case bytecode.OpNot:
			t.push(heap.FromBool(t.pop() == heap.FromInt(0)))

		case bytecode.OpNeg:
			x := t.pop()
			if !x.IsInt() {
				v.fail(t, "negation of non-integer")
				return
			}
			t.push(heap.FromInt(-x.Int()))

		case bytecode.OpMkTuple:
			n := int(ins.A)
			p, ok := v.alloc(t, heap.KindRecord, n)
			if !ok {
				return
			}
			for i := 0; i < n; i++ {
				m.Init(p, i, t.peek(n-1-i))
			}
			t.stack = t.stack[:len(t.stack)-n]
			t.push(p)

		case bytecode.OpProj:
			tup := t.pop()
			if !tup.IsPtr() {
				v.fail(t, "projection from non-tuple")
				return
			}
			hdr := m.Header(tup)
			if !hdr.Kind().HasPointers() || int(ins.A) >= hdr.Len() {
				v.fail(t, "projection #%d out of range for %v[%d]", ins.A+1, hdr.Kind(), hdr.Len())
				return
			}
			t.push(m.Get(tup, int(ins.A)))

		case bytecode.OpMkRef:
			p, ok := v.alloc(t, heap.KindRef, 1)
			if !ok {
				return
			}
			m.Init(p, 0, t.peek(0))
			t.pop()
			t.push(p)

		case bytecode.OpDeref:
			r := t.pop()
			if !r.IsPtr() {
				v.fail(t, "dereference of non-ref")
				return
			}
			t.push(m.Get(r, 0))

		case bytecode.OpAssign:
			val := t.pop()
			r := t.pop()
			if !r.IsPtr() {
				v.fail(t, "assignment to non-ref")
				return
			}
			m.Set(r, 0, val)
			t.push(heap.FromInt(0))

		case bytecode.OpMkArray:
			init := t.peek(0)
			nv := t.peek(1)
			if !nv.IsInt() || nv.Int() < 0 {
				v.fail(t, "array size must be a non-negative integer")
				return
			}
			n := int(nv.Int())
			p, ok := v.alloc(t, heap.KindArray, n)
			if !ok {
				return
			}
			init = t.peek(0) // re-read after allocation
			for i := 0; i < n; i++ {
				m.Init(p, i, init)
			}
			t.pop()
			t.pop()
			t.push(p)

		case bytecode.OpAGet:
			iv := t.pop()
			arr := t.pop()
			if !arr.IsPtr() || !iv.IsInt() {
				v.fail(t, "aget type error")
				return
			}
			i := int(iv.Int())
			if i < 0 || i >= m.Length(arr) {
				v.fail(t, "array index %d out of bounds %d", i, m.Length(arr))
				return
			}
			t.push(m.Get(arr, i))

		case bytecode.OpASet:
			val := t.pop()
			iv := t.pop()
			arr := t.pop()
			if !arr.IsPtr() || !iv.IsInt() {
				v.fail(t, "aset type error")
				return
			}
			i := int(iv.Int())
			if i < 0 || i >= m.Length(arr) {
				v.fail(t, "array index %d out of bounds %d", i, m.Length(arr))
				return
			}
			m.Set(arr, i, val)
			t.push(heap.FromInt(0))

		case bytecode.OpALen:
			arr := t.pop()
			if !arr.IsPtr() {
				v.fail(t, "alen of non-array")
				return
			}
			t.push(heap.FromInt(int64(m.Length(arr))))

		case bytecode.OpBind:
			e, ok := v.alloc(t, heap.KindRecord, 2)
			if !ok {
				return
			}
			m.Init(e, 0, t.env)
			m.Init(e, 1, t.peek(0))
			t.pop()
			t.env = e

		case bytecode.OpBindHole:
			e, ok := v.alloc(t, heap.KindRef, 2)
			if !ok {
				return
			}
			m.Init(e, 0, t.env)
			m.Init(e, 1, heap.FromInt(0))
			t.env = e

		case bytecode.OpPatch:
			e := t.env
			for h := int32(0); h < ins.A; h++ {
				e = m.Get(e, 0)
			}
			m.Set(e, 1, t.pop())

		case bytecode.OpEnvPop:
			for h := int32(0); h < ins.A; h++ {
				t.env = m.Get(t.env, 0)
			}

		case bytecode.OpPopN:
			t.stack = t.stack[:len(t.stack)-int(ins.A)]

		case bytecode.OpSwapPop:
			r := t.pop()
			t.pop()
			t.push(r)

		case bytecode.OpDup:
			t.push(t.peek(0))

		case bytecode.OpTestInt:
			x := t.pop()
			if !x.IsInt() || x.Int() != int64(ins.A) {
				t.pc = int(ins.B)
			}

		case bytecode.OpTestNil:
			if t.pop() != heap.FromInt(0) {
				t.pc = int(ins.A)
			}

		case bytecode.OpTestCons:
			x := t.peek(0)
			// A cons cell is a two-slot pointer record; anything else
			// (immediates, strings, byte arrays, wider tuples) fails the
			// pattern rather than being reinterpreted.
			if !x.IsPtr() {
				t.pop()
				t.pc = int(ins.A)
				break
			}
			if hdr := m.Header(x); !hdr.Kind().HasPointers() || hdr.Len() != 2 {
				t.pop()
				t.pc = int(ins.A)
				break
			}
			t.pop()
			t.push(m.Get(x, 1)) // tail
			t.push(m.Get(x, 0)) // head
		case bytecode.OpTestTuple:
			x := t.peek(0)
			if !x.IsPtr() || !m.Kind(x).HasPointers() || m.Length(x) != int(ins.A) {
				t.pop()
				t.pc = int(ins.B)
				break
			}
			t.pop()
			for i := int(ins.A) - 1; i >= 0; i-- {
				t.push(m.Get(x, i))
			}

		case bytecode.OpPrint:
			s := t.pop()
			if !s.IsPtr() {
				v.fail(t, "print of non-string")
				return
			}
			v.Output.Write(m.Bytes(s))
			t.push(heap.FromInt(0))

		case bytecode.OpItoS:
			x := t.pop()
			if !x.IsInt() {
				v.fail(t, "itos of non-integer")
				return
			}
			s, ok := v.allocString(t, []byte(strconv.FormatInt(x.Int(), 10)))
			if !ok {
				return
			}
			t.push(s)

		case bytecode.OpStoI:
			s := t.pop()
			if !s.IsPtr() {
				v.fail(t, "stoi of non-string")
				return
			}
			n, _ := strconv.ParseInt(m.GoString(s), 10, 64)
			t.push(heap.FromInt(n))

		case bytecode.OpSize:
			s := t.pop()
			if !s.IsPtr() {
				v.fail(t, "size of non-string")
				return
			}
			t.push(heap.FromInt(int64(m.Length(s))))

		case bytecode.OpSub:
			iv := t.pop()
			s := t.pop()
			if !s.IsPtr() || !iv.IsInt() {
				v.fail(t, "sub type error")
				return
			}
			i := int(iv.Int())
			if i < 0 || i >= m.Length(s) {
				v.fail(t, "string index %d out of bounds %d", i, m.Length(s))
				return
			}
			t.push(heap.FromInt(int64(m.GetByte(s, i))))

		case bytecode.OpSpawn:
			clo := t.peek(0)
			if !v.checkClosure(t, clo, "spawn") {
				return
			}
			e, ok := v.alloc(t, heap.KindRecord, 2)
			if !ok {
				return
			}
			clo = t.peek(0)
			m.Init(e, 0, heap.FromInt(0))
			m.Init(e, 1, heap.FromInt(0)) // unit argument
			nt := &Thread{
				block: int(m.Get(clo, 0).Int()),
				env:   e,
				clo:   clo,
			}
			t.pop()
			v.threads = append(v.threads, nt)
			t.push(heap.FromInt(0))

		case bytecode.OpYield:
			t.push(heap.FromInt(0))
			return // end of slice: reschedule

		case bytecode.OpNewSV:
			p, ok := v.alloc(t, heap.KindRef, 2)
			if !ok {
				return
			}
			m.Init(p, 0, heap.FromInt(0)) // empty
			m.Init(p, 1, heap.FromInt(0))
			t.push(p)

		case bytecode.OpPutSV:
			val := t.peek(0)
			sv := t.peek(1)
			if !sv.IsPtr() {
				v.fail(t, "putsv on non-syncvar")
				return
			}
			if m.Get(sv, 0) != heap.FromInt(0) {
				v.fail(t, "putsv on full syncvar")
				return
			}
			m.Set(sv, 1, val)
			m.Set(sv, 0, heap.FromInt(1))
			t.pop()
			t.pop()
			t.push(heap.FromInt(0))

		case bytecode.OpTakeSV:
			sv := t.peek(0)
			if !sv.IsPtr() {
				v.fail(t, "takesv on non-syncvar")
				return
			}
			if m.Get(sv, 0) == heap.FromInt(0) {
				// Not ready: block with the sv still on the stack and the
				// pc rewound so the instruction retries when scheduled.
				t.pc--
				t.status = statusBlocked
				return
			}
			t.pop()
			t.push(m.Get(sv, 1))

		case bytecode.OpHalt:
			v.halted = true
			if ins.A != 0 {
				v.fail(t, "match failure")
			}
			return

		default:
			v.fail(t, "illegal opcode %v", ins.Op)
			return
		}

		if len(t.stack) > 1<<20 {
			v.fail(t, "operand stack overflow")
			return
		}
	}
}

// binop executes OpBin; reports false when the VM failed.
func (v *VM) binop(t *Thread, op bytecode.BinOp) bool {
	m := v.m
	//gclint:allow exhaustive -- partial by design: every operator absent here is an integer operator handled (exhaustively) by the typed switch below
	switch op {
	case bytecode.BinCons:
		p, ok := v.alloc(t, heap.KindRecord, 2)
		if !ok {
			return false
		}
		m.Init(p, 0, t.peek(1)) // head
		m.Init(p, 1, t.peek(0)) // tail
		t.pop()
		t.pop()
		t.push(p)
		return true

	case bytecode.BinStrCat:
		a, b := t.peek(1), t.peek(0)
		if !a.IsPtr() || !b.IsPtr() {
			v.fail(t, "^ of non-strings")
			return false
		}
		buf := append(m.Bytes(a), m.Bytes(b)...)
		s, ok := v.allocString(t, buf)
		if !ok {
			return false
		}
		t.pop()
		t.pop()
		t.push(s)
		return true

	case bytecode.BinEq, bytecode.BinNe:
		b, a := t.pop(), t.pop()
		eq := m.Eq(a, b)
		if op == bytecode.BinNe {
			eq = !eq
		}
		t.push(heap.FromBool(eq))
		return true
	}

	bv, av := t.pop(), t.pop()
	if !av.IsInt() || !bv.IsInt() {
		v.fail(t, "%v of non-integers (%v, %v)", op, av, bv)
		return false
	}
	a, b := av.Int(), bv.Int()
	var r int64
	switch op {
	case bytecode.BinAdd:
		r = a + b
	case bytecode.BinSub:
		r = a - b
	case bytecode.BinMul:
		r = a * b
	case bytecode.BinDiv:
		if b == 0 {
			v.fail(t, "division by zero")
			return false
		}
		r = a / b
	case bytecode.BinMod:
		if b == 0 {
			v.fail(t, "mod by zero")
			return false
		}
		r = a % b
	case bytecode.BinLt:
		t.push(heap.FromBool(a < b))
		return true
	case bytecode.BinLe:
		t.push(heap.FromBool(a <= b))
		return true
	case bytecode.BinGt:
		t.push(heap.FromBool(a > b))
		return true
	case bytecode.BinGe:
		t.push(heap.FromBool(a >= b))
		return true
	default:
		v.fail(t, "illegal binary operator %v", op)
		return false
	}
	t.push(heap.FromInt(r))
	return true
}

// ThreadCount reports how many threads were ever created.
func (v *VM) ThreadCount() int { return len(v.threads) }
