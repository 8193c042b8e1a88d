package core

import (
	"fmt"

	"repligc/internal/heap"
)

// AuditHeap walks the object graph reachable from the mutator's roots and
// verifies structural integrity: every pointer must land in a mutator-
// visible space, every header must be a sane descriptor (following
// forwarding where a collection is in flight), and byte-kind objects must
// never be traversed as pointers. It returns the first violation found.
//
// The audit sees the heap exactly as the mutator does — through from-space
// originals — so it can run at any collector-quiescent point, including in
// the middle of an incremental collection, where it doubles as a check of
// the from-space invariant (a collector that leaked a to-space pointer
// into mutator-visible state before the flip would be caught here): the walk
// must never enter a replica the collector keeps hidden until the flip
// (ScanAuditor.HiddenReplica).
func AuditHeap(m *Mutator) error {
	h := m.H
	sc, _ := m.GC.(ScanAuditor)
	visited := make(map[heap.Value]bool)
	var walk func(v heap.Value, depth int) error
	walk = func(v heap.Value, depth int) error {
		if !v.IsPtr() || visited[v] {
			return nil
		}
		if depth > 1_000_000 {
			return fmt.Errorf("audit: traversal too deep (cycle bookkeeping broken?)")
		}
		visited[v] = true

		if !h.Nursery.Contains(v) && !h.OldFrom().Contains(v) && !h.OldTo().Contains(v) {
			return fmt.Errorf("audit: pointer %v outside every space", v)
		}
		if sc != nil && sc.HiddenReplica(v) {
			return fmt.Errorf("audit: %v is a hidden replica, which nothing the mutator reaches may reference before the major flip", v)
		}

		raw := h.RawHeader(v)
		hdr := heap.Header(raw)
		if !heap.IsHeader(raw) {
			// A forwarded original: legal only during an active collection;
			// the forwarding target must itself be a valid object.
			fwd := h.ForwardAddr(v)
			if !fwd.IsPtr() {
				return fmt.Errorf("audit: forwarding word of %v is not a pointer", v)
			}
			if !h.OldFrom().Contains(fwd) && !h.OldTo().Contains(fwd) {
				return fmt.Errorf("audit: %v forwards outside the old generation", v)
			}
			hdr = h.HeaderOf(v)
		}
		if hdr.Kind() > heap.KindMax {
			return fmt.Errorf("audit: object %v has invalid kind %d", v, hdr.Kind())
		}
		if hdr.SizeWords() <= 0 || hdr.SizeBytes() > 1<<30 {
			return fmt.Errorf("audit: object %v has implausible size %d", v, hdr.SizeBytes())
		}
		if !hdr.Kind().HasPointers() {
			return nil
		}
		for i := 0; i < hdr.Len(); i++ {
			if err := walk(h.Load(v, i), depth+1); err != nil {
				return fmt.Errorf("%v[%d]: %w", hdr.Kind(), i, err)
			}
		}
		return nil
	}

	var firstErr error
	m.Roots.Visit(func(slot *heap.Value) {
		if firstErr != nil {
			return
		}
		if err := walk(*slot, 0); err != nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return firstErr
	}
	if sc != nil {
		return sc.AuditScanned(m)
	}
	return nil
}

// ScanAuditor is implemented by collectors that can verify their own
// incremental invariants beyond the structural checks above: AuditHeap asks
// HiddenReplica about every object its walk enters and invokes AuditScanned
// after the walk succeeds.
type ScanAuditor interface {
	HiddenReplica(v heap.Value) bool
	AuditScanned(m *Mutator) error
}

// HiddenReplica reports whether v is a replica the mutator must not be able to
// reach yet: while a major collection is active, a major replica that no
// visible slot has been redirected to (hiddenHolder) — every replica of a
// mutable object, and an immutable object's until expose has walked it. Every
// reference to its original stays on the original until then, which is what
// lets such a replica's own slots point straight at replicas (toSpaceValue).
// The walk is what the audit checks: it enters an exposed replica only through
// a redirected slot, and must find behind it no hidden replica.
func (c *Replicating) HiddenReplica(v heap.Value) bool {
	return c.major.active && c.h.OldTo().Contains(v) && c.hiddenHolder(v, c.major.isReplica(v))
}

// AuditScanned verifies the replication collector's tricolor discipline: an
// object the scan has finished with (black) must not reference anything the
// scan is supposed to have already redirected. Concretely, a fully scanned
// minor replica holds no nursery pointers, and a fully traced major to-space
// object holds no old from-space pointers — except through the collector's
// own deferred-work records (the flip's worklist, the minor's pending mutable
// copies (§2.5), and mutations logged since the generation's log cursor, all
// of which are re-pointed no later than the flip).
func (c *Replicating) AuditScanned(m *Mutator) error {
	for _, g := range [...]*generation{&c.minor, &c.major} {
		if !g.active {
			continue
		}
		except := unreachedLogSlots(m, g.logCursor)
		for _, f := range g.worklist {
			except[f] = true
		}
		fromName := "from-space"
		if !g.major {
			fromName = "nursery"
			for _, f := range c.pendingMut {
				except[f] = true
			}
		}
		if err := c.auditScannedRegion(g, fromName, except); err != nil {
			return err
		}
	}
	return nil
}

// unreachedLogSlots collects the slots named by word entries at or above a
// log cursor: mutations its collection has not processed yet.
func unreachedLogSlots(m *Mutator, cursor int64) map[fixup]bool {
	slots := make(map[fixup]bool)
	for seq := max(cursor, m.Log.Base()); seq < m.Log.Len(); seq++ {
		if e := m.Log.At(seq); !e.Byte {
			slots[fixup{obj: e.Obj, slot: e.Slot}] = true
		}
	}
	return slots
}

// auditScannedRegion checks the black part of g's scan region. Black is an
// address test: the cursor has fully passed every object whose header sits
// in [scanStart, scan). The object at the cursor may be partially scanned
// (scanSlot resumes inside it); it owes nothing yet.
func (c *Replicating) auditScannedRegion(g *generation, fromName string, except map[fixup]bool) error {
	h := c.h
	// The in-flight replica needs no exemption here because none of it is
	// black: its uncopied tail is not the object yet, so the cursor must
	// still be in front of it, and its original must lead to it.
	if job := g.inflight; job.replica != heap.Nil {
		if hdrIdx := uint64(job.replica)>>3 - 1; hdrIdx < g.scan {
			return fmt.Errorf("audit: %s scan at word %#x has passed the in-flight replica %v (%d of %d words copied)", g.name, g.scan, job.replica, job.next, job.words)
		}
		if !h.IsForwarded(job.orig) || h.ForwardAddr(job.orig) != job.replica {
			return fmt.Errorf("audit: in-flight %s original %v does not forward to its replica %v", g.name, job.orig, job.replica)
		}
	}
	// Mutator-owned objects inside the minor's region (oversized
	// allocations) were stepped over, not scanned.
	skipAt := make(map[uint64]uint64)
	for _, sp := range g.skips {
		skipAt[sp.start] = sp.words
	}
	for idx := g.scanStart; idx < g.scan; {
		if w, ok := skipAt[idx]; ok {
			idx += w
			continue
		}
		raw := h.Word(idx)
		if !heap.IsHeader(raw) {
			return fmt.Errorf("audit: scanned %s region holds a forwarded header at word %#x", g.name, idx)
		}
		hdr := heap.Header(raw)
		p := heap.Value((idx + 1) << 3)
		if hdr.Kind().HasPointers() {
			for i := 0; i < hdr.Len(); i++ {
				v := h.Load(p, i)
				if g.from.Contains(v) && !except[fixup{obj: p, slot: int32(i)}] {
					return fmt.Errorf("audit: scanned %s replica %v slot %d still holds %s pointer %v", g.name, p, i, fromName, v)
				}
			}
		}
		idx += uint64(hdr.SizeWords())
	}
	return nil
}
