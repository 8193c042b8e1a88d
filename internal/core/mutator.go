package core

import (
	"repligc/internal/heap"
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// Mutator is the interface through which all application code (the MiniML
// VM, the MiniML compiler, examples) touches the heap. It implements the
// paper's mutator-side mechanisms: bump allocation in the nursery with
// collector callbacks, the write barrier that appends to the mutation log,
// and the getheader operation that follows the forwarding word merged into
// object headers. Reads are raw loads — under the from-space invariant the
// mutator always addresses original objects, which is the whole point of
// replication collection (no read barrier).
type Mutator struct {
	H     *heap.Heap
	Clock *simtime.Clock
	Cost  simtime.CostModel
	Log   *MutationLog
	Roots *RootSet
	GC    Collector

	// Policy selects which mutations are logged (paper §4.5's compiler
	// modifications switch).
	Policy LogPolicy

	// NaiveBarrier turns off the write barrier's one skip (skipLog): every
	// store the policy covers appends the entry the coalescing barrier
	// appends on a miss, as the paper's barrier does. It exists for the
	// differential property tests (coalesced replay must be bit-identical
	// to naive replay) and for the baseline leg of the benchmark trajectory.
	NaiveBarrier bool

	// BytesAllocated counts every byte ever allocated; policy scripts are
	// expressed in this coordinate so that runs with different collectors
	// flip at identical points.
	BytesAllocated int64

	// LogWrites counts barrier-produced log entries.
	LogWrites int64

	// BarrierFastSkips counts stores the barrier skipped logging entirely
	// because the target was an unreplicated nursery object — the next
	// startMinor copies it with its current contents, so no entry is owed.
	BarrierFastSkips int64

	// BarrierDirtySkips counts stores whose log append was suppressed by a
	// set dirty bit: the log already retains an unconsumed entry covering
	// the slot, and entries are value-free, so a second one would be pure
	// overhead.
	BarrierDirtySkips int64

	// Trace, when non-nil, receives allocation-epoch events (one every
	// AllocEpochBytes of allocation). The hook lives on the slow-path side
	// of chargeAlloc, never in the write barrier, so the barrier fast
	// paths stay allocation-free with tracing on or off.
	Trace *trace.Recorder

	// Actor identifies this mutator context within its Group. The trace
	// subsystem stamps allocation epochs with it so per-mutator allocation
	// timelines stay distinguishable in exports.
	Actor int

	traceAllocMark int64 // BytesAllocated threshold for the next epoch event

	handles handleStack
}

// AllocEpochBytes is the allocation volume between consecutive
// alloc-epoch trace events.
const AllocEpochBytes = 256 << 10

// NewMutator wires a mutator to a heap and clock as the single member of
// its own group; the collector is attached separately (collectors need the
// mutator during construction of a run).
func NewMutator(h *heap.Heap, clock *simtime.Clock, cost simtime.CostModel, policy LogPolicy) *Mutator {
	return NewGroup(h, clock, cost, policy, 1).Members[0]
}

// AttachGC installs the collector.
func (m *Mutator) AttachGC(gc Collector) { m.GC = gc }

// Step charges the cost of n mutator instructions (VM bytecodes or units of
// compiler work). It is how mutator computation advances simulated time.
func (m *Mutator) Step(n int) {
	m.Clock.Charge(simtime.AcctMutator, simtime.Duration(n)*m.Cost.Instruction)
}

// Pacer is never called and no collector implements it: an allocation enters
// the collector only through CollectForAlloc. Like Collector.AfterAlloc, it is
// declared only because the frozen benchmarks/host collector wrapper asserts
// and forwards it.
type Pacer interface {
	AllocTax(m *Mutator, bytes int64) error
}

// Alloc allocates an object of kind k with length field n (words, or bytes
// for byte kinds) in the nursery, invoking the collector when the nursery
// is exhausted. Objects too large for the nursery go directly to the old
// generation, as in SML/NJ. Exhaustion the collector's degradation ladder
// cannot recover from is reported as a typed *OOMError; the heap stays
// fully auditable and usable for smaller allocations afterwards.
func (m *Mutator) Alloc(k heap.Kind, n int) (heap.Value, error) {
	hdr := heap.MakeHeader(k, n)
	sizeB := hdr.SizeBytes()
	// Oversized objects bypass the nursery.
	if sizeB > m.H.Nursery.LimitBytes()/2 {
		return m.allocOld(k, n)
	}
	for attempt := 0; ; attempt++ {
		if p, ok := m.H.AllocIn(&m.H.Nursery, k, n); ok {
			m.chargeAlloc(hdr)
			return p, nil
		}
		if m.GC == nil || attempt > 0 {
			res := OOMNursery
			if m.H.Nursery.Hi == m.H.Nursery.Cap {
				res = OOMExpansion // grown to the hard cap and still too small
			}
			return heap.Nil, SpaceOOM(res, m.gcName(), &m.H.Nursery, hdr, attempt > 0)
		}
		if err := m.GC.CollectForAlloc(m, hdr.SizeWords()); err != nil {
			return heap.Nil, err
		}
	}
}

// MustAlloc is Alloc for callers that treat exhaustion as fatal (tests,
// examples, the MiniML compiler behind its recover boundary). It panics
// with the typed *OOMError.
func (m *Mutator) MustAlloc(k heap.Kind, n int) heap.Value {
	p, err := m.Alloc(k, n)
	if err != nil {
		//gclint:allow panicpath -- Must variant: the caller opted into fatal OOM; the value is the typed *OOMError
		panic(err)
	}
	return p
}

// gcName names the attached collector for an OOMError ("" without one).
func (m *Mutator) gcName() string {
	if m.GC == nil {
		return ""
	}
	return m.GC.Name()
}

// OldAllocNoter is implemented by collectors that must account for objects
// allocated directly in the old generation (oversized allocations).
type OldAllocNoter interface {
	NoteOldAlloc(p heap.Value, hdr heap.Header)
}

// allocOld allocates directly in the old generation — into the collector's
// promotion space, so that during an active major collection the object is
// born in to-space and never needs major copying. When the space is full
// the collector gets one emergency stop-the-world collection (the top rung
// of the degradation ladder) before the typed error surfaces.
func (m *Mutator) allocOld(k heap.Kind, n int) (heap.Value, error) {
	hdr := heap.MakeHeader(k, n)
	for attempt := 0; ; attempt++ {
		space := m.H.OldFrom()
		if ps, ok := m.GC.(interface{ PromoteSpace() *heap.Space }); ok {
			space = ps.PromoteSpace()
		}
		if p, ok := m.H.AllocIn(space, k, n); ok {
			m.chargeAlloc(hdr)
			if rc, ok := m.GC.(OldAllocNoter); ok {
				rc.NoteOldAlloc(p, hdr)
			}
			return p, nil
		}
		ec, ok := m.GC.(EmergencyCollector)
		if !ok || attempt > 0 {
			return heap.Nil, SpaceOOM(OOMOldSpace, m.gcName(), space, hdr, attempt > 0)
		}
		if err := ec.CollectEmergency(m); err != nil {
			return heap.Nil, err
		}
	}
}

func (m *Mutator) chargeAlloc(hdr heap.Header) {
	m.Clock.Charge(simtime.AcctAlloc, simtime.Duration(hdr.SizeWords())*m.Cost.AllocWord)
	m.BytesAllocated += hdr.SizeBytes()
	if m.Trace != nil && m.BytesAllocated >= m.traceAllocMark {
		m.Trace.AllocEpoch(m.Clock.Now(), int64(m.Actor), m.BytesAllocated)
		m.traceAllocMark = m.BytesAllocated + AllocEpochBytes
	}
}

// Get reads payload word i of p. No barrier, no forwarding check.
func (m *Mutator) Get(p heap.Value, i int) heap.Value { return m.H.Load(p, i) }

// Init performs an initialising store into a freshly allocated object.
// Initialising stores into the nursery are not mutations and are never
// logged; an initialising store into an object allocated directly in the old
// generation is a mutation like any other, because it can create an old→new
// pointer (the generational remembered set must see it) and can race with an
// in-progress replication of the object.
func (m *Mutator) Init(p heap.Value, i int, v heap.Value) {
	if m.H.Nursery.Contains(p) {
		m.H.Store(p, i, v)
		return
	}
	m.Set(p, i, v)
}

// Set mutates payload word i of p, recording the mutation per the logging
// policy. This is the write barrier.
func (m *Mutator) Set(p heap.Value, i int, v heap.Value) {
	m.H.Store(p, i, v)
	if (m.Policy == LogAllMutations || v.IsPtr()) && !m.skipLog(p, i, 1) {
		m.logMutation(LogEntry{Obj: p, Slot: int32(i)})
	}
}

// skipLog is the write barrier's one skip, for a store covering payload
// words [w, w+n) of p. It reports true when the store needs no log entry:
// either the target is an unreplicated nursery object (the next startMinor
// copies it whole, so its current contents travel with it and it cannot be a
// remembered-set source), or every covered word's dirty bit is set (the log
// already retains an unconsumed, value-free entry covering it, appended since
// the last pause began — see heap/stamp.go). On a miss it marks the words and
// directs the caller to append, making the common repeated-store case one
// load and one mask test. NaiveBarrier turns the skip off: the paper's
// barrier, which appends every store the policy covers.
//
// The one-word branch, the pointer store's case, stays by measurement
// (DESIGN.md, "Log coalescing and the barrier fast path").
//
//go:nosplit
func (m *Mutator) skipLog(p heap.Value, w, n int) bool {
	if m.NaiveBarrier {
		return false
	}
	if m.H.Nursery.Contains(p) && !m.H.IsForwarded(p) {
		m.BarrierFastSkips++
		return true
	}
	if n == 1 {
		if !m.H.SlotDirty(p, w) {
			m.H.MarkSlotDirty(p, w)
			return false
		}
	} else if !m.H.WordsDirty(p, w, n) {
		m.H.MarkWordsDirty(p, w, n)
		return false
	}
	m.BarrierDirtySkips++
	return true
}

// GetByte reads byte i of a byte-kind object.
func (m *Mutator) GetByte(p heap.Value, i int) byte { return m.H.LoadByte(p, i) }

// GetByteRange reads len(dst) bytes of a byte-kind object starting at byte
// off into dst. Like GetByte it charges nothing: it is the block form of the
// same read, for callers that decode a whole buffer.
func (m *Mutator) GetByteRange(p heap.Value, off int, dst []byte) {
	m.H.LoadBytes(p, off, dst)
}

// SetByte mutates byte i of a byte-kind object. Byte mutations are only
// logged under LogAllMutations — the paper's compiler modification whose
// cost shows up in Comp (§4.5).
func (m *Mutator) SetByte(p heap.Value, i int, b byte) {
	m.H.StoreByte(p, i, b)
	m.logBytes(p, i, 1)
}

// SetByteRange mutates len(data) bytes of a byte-kind object starting at
// byte off, producing a single log entry covering the range (the
// runtime-system equivalent of logging a block store, used by the compiler
// when it emits code into heap buffers).
func (m *Mutator) SetByteRange(p heap.Value, off int, data []byte) {
	m.H.StoreBytes(p, off, data)
	m.logBytes(p, off, len(data))
}

// logBytes is the barrier of a store to bytes [off, off+n) of p. Its entry
// covers the containing words: payloads are padded to word boundaries,
// entries are value-free, and a dirty bit vouches for a whole word (an entry
// narrower than its bit would lose later byte stores to the same word).
func (m *Mutator) logBytes(p heap.Value, off, n int) {
	if m.Policy != LogAllMutations || n == 0 {
		return
	}
	w := off / heap.BytesPerWord
	nw := (off+n-1)/heap.BytesPerWord - w + 1
	if !m.skipLog(p, w, nw) {
		m.logMutation(LogEntry{Obj: p, Slot: int32(w * heap.BytesPerWord), Len: int32(nw * heap.BytesPerWord), Byte: true})
	}
}

func (m *Mutator) logMutation(e LogEntry) {
	m.Log.Append(e)
	m.LogWrites++
	m.Clock.Charge(simtime.AcctLogWrite, m.Cost.LogWrite)
}

// Header returns p's descriptor, following the forwarding word if the
// object has been replicated — the paper's getheader operation, used by
// length primitives and polymorphic equality. The forwarding test's cost is
// charged here; the paper found it unmeasurably small.
func (m *Mutator) Header(p heap.Value) heap.Header {
	m.Clock.Charge(simtime.AcctHeaderCheck, m.Cost.HeaderCheck)
	return m.H.HeaderOf(p)
}

// Kind returns p's object kind via Header.
func (m *Mutator) Kind(p heap.Value) heap.Kind { return m.Header(p).Kind() }

// Length returns p's length field via Header.
func (m *Mutator) Length(p heap.Value) int { return m.Header(p).Len() }

// Eq implements ML polymorphic equality: immediates compare by value,
// mutable objects by identity, immutable objects structurally.
func (m *Mutator) Eq(a, b heap.Value) bool {
	if a == b {
		return true
	}
	if !a.IsPtr() || !b.IsPtr() {
		return false
	}
	ha, hb := m.Header(a), m.Header(b)
	if ha.Kind() != hb.Kind() || ha.Len() != hb.Len() {
		return false
	}
	if ha.Kind().Mutable() {
		return false // identity already failed
	}
	if !ha.Kind().HasPointers() {
		for i := 0; i < ha.Len(); i++ {
			if m.GetByte(a, i) != m.GetByte(b, i) {
				return false
			}
		}
		return true
	}
	for i := 0; i < ha.Len(); i++ {
		if !m.Eq(m.Get(a, i), m.Get(b, i)) {
			return false
		}
	}
	return true
}

// PushHandle pins v on the shadow stack and returns its handle.
func (m *Mutator) PushHandle(v heap.Value) Handle {
	m.handles.slots = append(m.handles.slots, v)
	return Handle(len(m.handles.slots) - 1)
}

// HandleVal dereferences a handle.
func (m *Mutator) HandleVal(h Handle) heap.Value { return m.handles.slots[h] }

// SetHandleVal overwrites the pinned value.
func (m *Mutator) SetHandleVal(h Handle, v heap.Value) { m.handles.slots[h] = v }

// HandleMark returns the current shadow-stack depth, for scoped release.
func (m *Mutator) HandleMark() Handle { return Handle(len(m.handles.slots)) }

// PopHandles releases every handle at or above mark.
func (m *Mutator) PopHandles(mark Handle) {
	if int(mark) > len(m.handles.slots) {
		//gclint:allow panicpath -- invariant: unbalanced handle stack is caller corruption, not resource exhaustion
		panic("core: PopHandles beyond stack")
	}
	m.handles.slots = m.handles.slots[:mark]
}

// Collapse releases every handle at or above mark and re-pins h's value as
// the new top of the shadow stack, returning its handle. It performs no
// allocation, so the value cannot go stale in between.
func (m *Mutator) Collapse(mark Handle, h Handle) Handle {
	v := m.HandleVal(h)
	m.PopHandles(mark)
	return m.PushHandle(v)
}

// AllocString allocates an immutable string holding b.
func (m *Mutator) AllocString(b []byte) (heap.Value, error) {
	p, err := m.Alloc(heap.KindString, len(b))
	if err != nil {
		return heap.Nil, err
	}
	m.H.SetBytes(p, b)
	return p, nil
}

// MustAllocString is AllocString with MustAlloc's fatal-OOM contract.
func (m *Mutator) MustAllocString(b []byte) heap.Value {
	p, err := m.AllocString(b)
	if err != nil {
		//gclint:allow panicpath -- Must variant: the caller opted into fatal OOM; the value is the typed *OOMError
		panic(err)
	}
	return p
}

// AllocBytes allocates a mutable byte array of n bytes (zeroed).
func (m *Mutator) AllocBytes(n int) (heap.Value, error) { return m.Alloc(heap.KindBytes, n) }

// MustAllocBytes is AllocBytes with MustAlloc's fatal-OOM contract.
func (m *Mutator) MustAllocBytes(n int) heap.Value {
	p, err := m.AllocBytes(n)
	if err != nil {
		//gclint:allow panicpath -- Must variant: the caller opted into fatal OOM; the value is the typed *OOMError
		panic(err)
	}
	return p
}

// Bytes copies the payload of a byte-kind object into a fresh Go slice; the
// getheader cost of reading the length is charged like any other header
// check. This is the mutator-facing counterpart of Heap.Bytes, which client
// code must not call directly (gclint rule "barrier").
func (m *Mutator) Bytes(p heap.Value) []byte {
	m.Clock.Charge(simtime.AcctHeaderCheck, m.Cost.HeaderCheck)
	return m.H.Bytes(p)
}

// GoString copies a string object's payload out as a Go string.
func (m *Mutator) GoString(p heap.Value) string { return string(m.Bytes(p)) }
