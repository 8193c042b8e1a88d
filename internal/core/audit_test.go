package core

// White-box tests of AuditHeap and AuditScanned: each test builds a healthy
// heap, verifies the audit passes, then injects one specific corruption
// through raw heap access and checks that the audit reports that corruption
// and not something else. Test files are outside gclint's jurisdiction, which
// is exactly where heap-corrupting code belongs.

import (
	"strings"
	"testing"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

func auditMutator(t *testing.T, cfg Config) (*Mutator, *Replicating) {
	t.Helper()
	h := heap.New(heap.Config{
		NurseryBytes:    128 << 10,
		NurseryCapBytes: 4 << 20,
		OldSemiBytes:    16 << 20,
	})
	m := NewMutator(h, simtime.NewClock(), simtime.Default1993(), LogAllMutations)
	gc := NewReplicating(h, cfg)
	m.AttachGC(gc)
	return m, gc
}

// mustAuditError asserts the audit fails and the message names the injected
// corruption.
func mustAuditError(t *testing.T, m *Mutator, want string) {
	t.Helper()
	err := AuditHeap(m)
	if err == nil {
		t.Fatalf("audit passed over a corrupted heap (want error containing %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("audit error %q does not mention %q", err, want)
	}
}

func TestAuditRejectsOutOfRangeKind(t *testing.T) {
	m, _ := auditMutator(t, Config{NurseryBytes: 128 << 10})
	p := m.MustAlloc(heap.KindRecord, 2)
	m.Init(p, 0, heap.FromInt(1))
	m.Init(p, 1, heap.Nil)
	m.PushHandle(p)
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit failed on a healthy heap: %v", err)
	}

	// Rewrite the header word with a kind beyond heap.KindMax. The length is
	// kept so only the kind field is wrong.
	m.H.SetWord(uint64(p)>>3-1, heap.Value(heap.MakeHeader(heap.KindMax+1, 2)))
	mustAuditError(t, m, "invalid kind")
}

func TestAuditRejectsNonPointerForwardingWord(t *testing.T) {
	m, _ := auditMutator(t, Config{NurseryBytes: 128 << 10})
	p := m.MustAlloc(heap.KindRecord, 1)
	m.Init(p, 0, heap.Nil)
	m.PushHandle(p)
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit failed on a healthy heap: %v", err)
	}

	// An even header word is read as a forwarding pointer; Nil is even but
	// not a pointer, so the object claims to be forwarded to nowhere.
	// SetForward refuses such a target, so the word is clobbered directly.
	m.H.SetWord(uint64(p)>>3-1, heap.Nil)
	mustAuditError(t, m, "is not a pointer")
}

func TestAuditRejectsForwardingOutsideOldGeneration(t *testing.T) {
	m, _ := auditMutator(t, Config{NurseryBytes: 128 << 10})
	p := m.MustAlloc(heap.KindRecord, 1)
	m.Init(p, 0, heap.Nil)
	m.PushHandle(p)
	junk := m.MustAlloc(heap.KindRecord, 1)
	m.Init(junk, 0, heap.Nil)

	// A forwarding pointer must aim at the old generation; a nursery target
	// means the forwarding word was clobbered.
	m.H.SetForward(p, junk)
	mustAuditError(t, m, "forwards outside the old generation")
}

func TestAuditRejectsOutOfSpacePointer(t *testing.T) {
	m, _ := auditMutator(t, Config{NurseryBytes: 128 << 10})
	p := m.MustAlloc(heap.KindArray, 2)
	m.Init(p, 0, heap.FromInt(7))
	m.Init(p, 1, heap.Nil)
	m.PushHandle(p)
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit failed on a healthy heap: %v", err)
	}

	// A word-aligned address beyond every space: a dangling or wild pointer.
	m.H.Store(p, 1, heap.Value(1<<40))
	mustAuditError(t, m, "outside every space")
}

// TestAuditScannedCatchesCorruptMinorReplica drives an incremental minor
// collection to a mid-cycle point where some replicas have been scanned, then
// smuggles a nursery pointer into a scanned replica slot behind the
// collector's back — precisely the inconsistency the Cheney scan exists to
// eliminate, invisible to the structural audit because the pointer itself is
// valid.
func TestAuditScannedCatchesCorruptMinorReplica(t *testing.T) {
	m, gc := auditMutator(t, Config{
		NurseryBytes:     128 << 10,
		CopyLimitBytes:   4 << 10,
		IncrementalMinor: true,
	})
	h := m.H

	// A nursery object to use as the smuggled pointer: unrooted, so it is
	// never replicated, but nursery addresses stay valid until the flip.
	junk := m.MustAlloc(heap.KindRecord, 1)
	m.Init(junk, 0, heap.Nil)

	// High survival: every record is kept, so the minor collection has far
	// more than one pause budget's worth of copying and scanning to do — on
	// one chain under one root, because a root set whose passes alone outlast
	// the budget completes in the pause that meets it (deferAttempt).
	chain := m.PushHandle(heap.Nil)
	for i := 0; i < 3000; i++ {
		p := m.MustAlloc(heap.KindRecord, 3)
		m.Init(p, 0, heap.FromInt(int64(i)))
		m.Init(p, 1, m.HandleVal(chain))
		m.Init(p, 2, heap.Nil)
		m.SetHandleVal(chain, p)
	}
	for i := 0; i < 200 && !(gc.minor.active && gc.minor.scan > gc.minor.scanStart); i++ {
		gc.CollectForAlloc(m, 0)
	}
	if !gc.minor.active || gc.minor.scan == gc.minor.scanStart {
		t.Fatal("could not reach a mid-minor state with a scanned region")
	}
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit failed mid-collection on a healthy heap: %v", err)
	}

	// Find a scanned pointer-bearing replica and corrupt its first slot.
	var target heap.Value
	for idx := gc.minor.scanStart; idx < gc.minor.scan; {
		hdr := heap.Header(h.Word(idx))
		if hdr.Kind().HasPointers() && hdr.Len() > 0 {
			target = heap.Value((idx + 1) << 3)
			break
		}
		idx += uint64(hdr.SizeWords())
	}
	if target == heap.Nil {
		t.Fatal("no pointer-bearing replica in the scanned region")
	}
	h.Store(target, 0, junk)
	mustAuditError(t, m, "still holds nursery pointer")
}

// TestAuditScannedCatchesCorruptBlackObject does the same for the major
// collection: a to-space object the implicit Cheney cursor has passed must
// not hold old from-space pointers, so planting one must be reported.
func TestAuditScannedCatchesCorruptBlackObject(t *testing.T) {
	m, gc := auditMutator(t, Config{
		NurseryBytes:        128 << 10,
		MajorThresholdBytes: 256 << 10,
		CopyLimitBytes:      4 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	})
	h := m.H

	// Promote a steady stream of records — keeping one in eight on a chain
	// under one root, so minor cycles complete with leftover pause budget
	// for the major to spend — until a major collection is active and has
	// blackened at least one pointer-bearing object.
	findBlack := func() heap.Value {
		if !gc.major.active {
			return heap.Nil
		}
		var black heap.Value
		h.WalkObjects(h.OldTo(), func(p heap.Value, hdr heap.Header) bool {
			if uint64(p)>>3-1 >= gc.major.scan {
				return true // at or above the cursor: not yet black
			}
			if !hdr.Kind().HasPointers() || hdr.Len() == 0 {
				return true
			}
			black = p
			return false
		})
		return black
	}
	var black heap.Value
	chain := m.PushHandle(heap.Nil)
	for i := 0; i < 200_000 && black == heap.Nil; i++ {
		p := m.MustAlloc(heap.KindRecord, 3)
		m.Init(p, 0, heap.FromInt(int64(i)))
		m.Init(p, 1, m.HandleVal(chain))
		m.Init(p, 2, heap.Nil)
		if i%8 == 0 {
			m.SetHandleVal(chain, p)
		}
		if i%512 == 0 {
			black = findBlack()
		}
	}
	if black == heap.Nil {
		t.Fatal("could not reach a mid-major state with a black object")
	}
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit failed mid-major on a healthy heap: %v", err)
	}

	// An old from-space pointer to plant: until the major flip the mutator
	// still addresses from-space originals, so the chain leads to one. (The
	// from-space itself cannot be walked mid-major: forwarded objects have
	// no headers left.)
	fromObj := m.HandleVal(chain)
	for fromObj != heap.Nil && !h.OldFrom().Contains(fromObj) {
		fromObj = h.Load(fromObj, 1)
	}
	if fromObj == heap.Nil {
		t.Fatal("old from-space is empty")
	}
	h.Store(black, 0, fromObj)
	mustAuditError(t, m, "holds from-space pointer")
}

// TestAuditCatchesVisibleMutableReplica is the hiding invariant's corruption
// case: while a major collection is active nothing the mutator can reach may
// reference the replica of a mutable object — that is what lets such a
// replica's own slots point straight at replicas (toSpaceValue) — so a
// visible slot hand-pointed at one must be reported, while the replica of an
// immutable object, which the collector itself redirects visible slots to,
// must not.
func TestAuditCatchesVisibleMutableReplica(t *testing.T) {
	m, gc := auditMutator(t, Config{
		NurseryBytes:        128 << 10,
		MajorThresholdBytes: 256 << 10,
		CopyLimitBytes:      4 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	})
	h := m.H

	// Promote pairs of a ref cell and a record, kept on a chain under one
	// root, until a major is active and has replicated one of each kind.
	replicaOf := func(mutable bool) heap.Value {
		for _, run := range gc.major.replicas {
			for idx := run.start; idx < run.start+run.words; {
				hdr := heap.Header(h.Word(idx))
				if hdr.Kind().Mutable() == mutable && hdr.Kind().HasPointers() {
					return heap.Value((idx + 1) << 3)
				}
				idx += uint64(hdr.SizeWords())
			}
		}
		return heap.Nil
	}
	chain := m.PushHandle(heap.Nil)
	for i := 0; i < 200_000 && !(gc.major.active && replicaOf(true) != heap.Nil && replicaOf(false) != heap.Nil); i++ {
		r := m.MustAlloc(heap.KindRef, 1)
		m.Init(r, 0, heap.FromInt(int64(i)))
		pin := m.PushHandle(r)
		p := m.MustAlloc(heap.KindRecord, 2)
		m.Init(p, 0, m.HandleVal(pin))
		m.Init(p, 1, m.HandleVal(chain))
		m.PopHandles(pin)
		if i%8 == 0 {
			m.SetHandleVal(chain, p) // one pair in eight survives, through the record
		}
	}
	hidden, shared := replicaOf(true), replicaOf(false)
	if !gc.major.active || hidden == heap.Nil || shared == heap.Nil {
		t.Fatal("could not reach a mid-major state with a mutable and an immutable replica")
	}
	if !gc.HiddenReplica(hidden) || gc.HiddenReplica(shared) {
		t.Fatalf("HiddenReplica: mutable replica %v, immutable replica %v", gc.HiddenReplica(hidden), gc.HiddenReplica(shared))
	}
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit failed mid-major on a healthy heap: %v", err)
	}

	// A rooted holder the mutator can read; the stores go behind the
	// barrier's back, as a collector bug would.
	holder := m.MustAlloc(heap.KindArray, 1)
	m.Init(holder, 0, heap.Nil)
	hh := m.PushHandle(holder)
	h.Store(m.HandleVal(hh), 0, shared)
	if err := AuditHeap(m); err != nil {
		t.Fatalf("audit rejected a visible reference to an immutable object's replica: %v", err)
	}
	h.Store(m.HandleVal(hh), 0, hidden)
	mustAuditError(t, m, "replica of a mutable object")
}
