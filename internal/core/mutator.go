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

	// NaiveBarrier disables the write barrier's fast paths: every store
	// that the policy covers appends a log entry, exactly as the unmodified
	// barrier did. It exists for the differential property tests (coalesced
	// replay must be bit-identical to naive replay) and for the baseline
	// leg of the benchmark trajectory.
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

// Pacer is implemented by collectors that interleave work with allocation
// (the concurrent-style pacing of the paper's §6). AllocTax runs at the top
// of every allocation, before the object exists.
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
	if p, ok := m.GC.(Pacer); ok {
		if err := p.AllocTax(m, sizeB); err != nil {
			return heap.Nil, err
		}
	}
	// Oversized objects bypass the nursery.
	if sizeB > m.H.Nursery.LimitBytes()/2 {
		return m.allocOld(k, n)
	}
	for attempt := 0; ; attempt++ {
		if p, ok := m.H.AllocIn(&m.H.Nursery, k, n); ok {
			m.chargeAlloc(hdr)
			if m.GC != nil {
				m.GC.AfterAlloc(m)
			}
			//gclint:allow stalehandle -- the fresh object is not yet reachable from any root, so AfterAlloc implementations must not copy or flip (they schedule work for the next CollectForAlloc); p cannot move here
			return p, nil
		}
		if m.GC == nil || attempt > 0 {
			return heap.Nil, m.oomFor(&m.H.Nursery, hdr, attempt > 0)
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

// oomFor builds the typed error for a failed nursery-path allocation.
func (m *Mutator) oomFor(space *heap.Space, hdr heap.Header, degraded bool) *OOMError {
	res := OOMNursery
	if space == &m.H.Nursery && space.Hi == space.Cap {
		res = OOMExpansion // grown to the hard cap and still too small
	}
	name := ""
	if m.GC != nil {
		name = m.GC.Name()
	}
	return &OOMError{
		Resource:  res,
		Collector: name,
		Space:     space.Name,
		Request:   hdr.SizeBytes(),
		Free:      int64(space.FreeWords()) * heap.BytesPerWord,
		Limit:     space.LimitBytes(),
		Degraded:  degraded,
	}
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
			name := ""
			if m.GC != nil {
				name = m.GC.Name()
			}
			return heap.Nil, &OOMError{
				Resource:  OOMOldSpace,
				Collector: name,
				Space:     space.Name,
				Request:   hdr.SizeBytes(),
				Free:      int64(space.FreeWords()) * heap.BytesPerWord,
				Limit:     space.LimitBytes(),
				Degraded:  attempt > 0,
			}
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
// logged; initialising stores into an object allocated directly in the old
// generation are logged like mutations, because they can create old→new
// pointers (the generational remembered set must see them) and can race
// with an in-progress replication of the object.
func (m *Mutator) Init(p heap.Value, i int, v heap.Value) {
	m.H.Store(p, i, v)
	if !m.H.Nursery.Contains(p) && (m.Policy == LogAllMutations || v.IsPtr()) {
		if m.skipWordLog(p, i) {
			return
		}
		m.logMutation(LogEntry{Obj: p, Slot: int32(i)})
	}
}

// Set mutates payload word i of p, recording the mutation per the logging
// policy. This is the write barrier.
func (m *Mutator) Set(p heap.Value, i int, v heap.Value) {
	m.H.Store(p, i, v)
	if m.Policy == LogAllMutations || v.IsPtr() {
		if m.skipWordLog(p, i) {
			return
		}
		m.logMutation(LogEntry{Obj: p, Slot: int32(i)})
	}
}

// skipWordLog is the write barrier's fast path for one word slot. It
// reports true when the store needs no log entry: either the target is an
// unreplicated nursery object (the next startMinor copies it whole, so its
// current contents travel with it and it cannot be a remembered-set source),
// or the slot's dirty bit is set (the log already retains an unconsumed,
// value-free entry covering the slot, appended since the last pause began —
// see heap/stamp.go). On a miss it marks the slot and directs the caller to
// the slow path, making the common repeated-store case one load and one
// mask test.
//
//gclint:allow barrierfast -- unreplicated nursery objects owe no log entry (copied whole at the next startMinor); a set dirty bit proves the log retains an unconsumed entry for this slot, and entries are value-free so one entry suffices
func (m *Mutator) skipWordLog(p heap.Value, i int) bool {
	if m.NaiveBarrier {
		return false
	}
	if m.H.Nursery.Contains(p) && !m.H.IsForwarded(p) {
		m.BarrierFastSkips++
		return true
	}
	if m.H.SlotDirty(p, i) {
		m.BarrierDirtySkips++
		return true
	}
	m.H.MarkSlotDirty(p, i)
	return false
}

// skipByteWordsLog is skipWordLog for a byte store covering payload words
// [w, w+n). Byte stores coalesce at word granularity, so the fast path needs
// the conjunction of the covered words' dirty bits; on a miss the caller must
// log a word-aligned entry covering all n words (a bit vouches for a whole
// word, and an entry narrower than its bit would lose later byte stores to
// the same word).
//
//gclint:allow barrierfast -- unreplicated nursery objects owe no log entry; set dirty bits prove the log retains unconsumed word-aligned entries covering these words
func (m *Mutator) skipByteWordsLog(p heap.Value, w, n int) bool {
	if m.NaiveBarrier {
		return false
	}
	if m.H.Nursery.Contains(p) && !m.H.IsForwarded(p) {
		m.BarrierFastSkips++
		return true
	}
	if m.H.WordsDirty(p, w, n) {
		m.BarrierDirtySkips++
		return true
	}
	m.H.MarkWordsDirty(p, w, n)
	return false
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
// cost shows up in Comp (§4.5). The coalesced entry covers the containing
// word: payloads are padded to word boundaries, entries are value-free, and
// the word is what the dirty bit vouches for.
func (m *Mutator) SetByte(p heap.Value, i int, b byte) {
	m.H.StoreByte(p, i, b)
	if m.Policy != LogAllMutations {
		return
	}
	if m.NaiveBarrier {
		m.logMutation(LogEntry{Obj: p, Slot: int32(i), Len: 1, Byte: true})
		return
	}
	w := i / heap.BytesPerWord
	if m.skipByteWordsLog(p, w, 1) {
		return
	}
	m.logMutation(LogEntry{Obj: p, Slot: int32(w * heap.BytesPerWord), Len: heap.BytesPerWord, Byte: true})
}

// SetByteRange mutates len(data) bytes of a byte-kind object starting at
// byte off, producing a single coalesced log entry covering the range (the
// runtime-system equivalent of logging a block store, used by the compiler
// when it emits code into heap buffers). The entry is widened to word
// alignment so it matches what the dirty bits vouch for.
func (m *Mutator) SetByteRange(p heap.Value, off int, data []byte) {
	m.H.StoreBytes(p, off, data)
	if m.Policy != LogAllMutations || len(data) == 0 {
		return
	}
	if m.NaiveBarrier {
		m.logMutation(LogEntry{Obj: p, Slot: int32(off), Len: int32(len(data)), Byte: true})
		return
	}
	w0 := off / heap.BytesPerWord
	nw := (off+len(data)-1)/heap.BytesPerWord - w0 + 1
	if m.skipByteWordsLog(p, w0, nw) {
		return
	}
	m.logMutation(LogEntry{
		Obj:  p,
		Slot: int32(w0 * heap.BytesPerWord),
		Len:  int32(nw * heap.BytesPerWord),
		Byte: true,
	})
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
