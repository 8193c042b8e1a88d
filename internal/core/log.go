// Package core implements the paper's primary contribution: the
// replication-based incremental garbage collector with its from-space
// invariant, mutation log, bounded copy budgets and atomic flips, together
// with the mutator interface (allocation, write barrier, getheader) that
// both the MiniML virtual machine and the MiniML compiler run on.
//
// The collector (Replicating, in replica.go) is the unified incremental
// engine: with both generations incremental it is the paper's real-time
// collector; with only one generation incremental it is the minor- or
// major-incremental configuration of the paper's §4.4 study. The
// stop-and-copy baseline lives in internal/stopcopy as an independent,
// destructively-forwarding implementation, mirroring the paper's comparison
// against the original SML/NJ collector.
package core

import (
	"repligc/internal/heap"
)

// LogPolicy selects which mutations the mutator records, reproducing the
// paper's compiler configurations (§4.5).
type LogPolicy int

const (
	// LogPointersOnly is the unmodified SML/NJ storelist: only stores of
	// pointer values are logged (they are what a generational collector
	// needs). Integer-ref and byte mutations are not recorded.
	LogPointersOnly LogPolicy = iota
	// LogAllMutations is the paper's modified compiler: every mutation is
	// logged, as replication collection requires.
	LogAllMutations
)

// String names the policy.
func (p LogPolicy) String() string {
	if p == LogPointersOnly {
		return "pointers-only"
	}
	return "all-mutations"
}

// LogEntry records one mutation: which object, which slot, and whether the
// slot is a word or a byte. The mutated value is deliberately absent:
// entries are re-read at processing time, so a later mutation of the same
// slot is handled by whichever entry is processed last (paper §2.1).
type LogEntry struct {
	Obj  heap.Value // the mutated (from-space original) object
	Slot int32      // word index, or starting byte index when Byte is set
	Len  int32      // number of bytes covered (byte entries only; >= 1)
	Byte bool       // byte-granularity store (never a pointer)
}

// MutationLog is the storelist: an append-only sequence of mutation records
// shared by the minor and major collections, each of which consumes entries
// through its own cursor. Entries below both cursors are trimmed.
//
// The log keeps its backing array: a trim only moves the offset of the
// oldest retained entry, and an append that finds the array full moves the
// retained entries to its front when the trimmed prefix is at least as long,
// so a warm log appends and trims without allocating (makeRoom).
type MutationLog struct {
	buf  []LogEntry // buf[off:] are the retained entries; buf[:off] is trimmed
	off  int
	base int64 // sequence number of buf[off]
	// held is the most entries retained at once since the array last
	// filled: what makeRoom tells a spike's array by.
	held int

	// pin, while pinned, is a low-water mark TrimTo may not pass: an open
	// checkpoint epoch replays every entry from its pin at commit time, so
	// trimming past it would silently drop write-ahead-log records and the
	// recovered heap would miss mutations.
	pin    int64
	pinned bool
}

// Pin clamps all future TrimTo calls to seq: entries at and above seq stay
// retained until Unpin. Pinning below the current base cannot resurrect
// already-trimmed entries; the effective pin is max(seq, Base()).
func (l *MutationLog) Pin(seq int64) {
	if seq < l.base {
		seq = l.base
	}
	l.pin, l.pinned = seq, true
}

// Unpin lifts the trim clamp.
func (l *MutationLog) Unpin() { l.pinned = false }

// Pinned reports the active pin, or (0, false).
func (l *MutationLog) Pinned() (int64, bool) { return l.pin, l.pinned }

// Restore replaces the log's contents wholesale: entries[0] gets sequence
// number base. It is the recovery path's entry point (the retained suffix of
// a checkpointed run's log is part of the checkpoint); the log is left
// unpinned.
func (l *MutationLog) Restore(base int64, entries []LogEntry) {
	l.buf, l.off, l.held = append(l.buf[:0:0], entries...), 0, 0
	l.base = base
	l.pinned = false
}

// Append adds an entry, at sequence number Len() - 1.
func (l *MutationLog) Append(e LogEntry) {
	if len(l.buf) == cap(l.buf) {
		l.makeRoom()
	}
	l.buf = append(l.buf, e)
}

// trimCompactFloor is the smallest array the log allocates; no array this
// small is taken for a spike's.
const trimCompactFloor = 64

// makeRoom readies a full array for at least one more entry. If the log has
// not held a quarter of the array since it last filled, the array is a
// spike's: the retained entries move to an array half its size, releasing
// it, so a spike is given back once the log has cycled through it.
// Otherwise they move to the front when the trimmed prefix is at least as
// long as they are, and failing that to an array twice the size.
func (l *MutationLog) makeRoom() {
	live, c := l.buf[l.off:], cap(l.buf)
	l.held = max(l.held, len(live))
	switch {
	case c > trimCompactFloor && l.held < c/4:
		l.buf = append(make([]LogEntry, 0, c/2), live...)
	case l.off > 0 && l.off >= len(live):
		l.buf = l.buf[:copy(l.buf, live)]
	default:
		l.buf = append(make([]LogEntry, 0, max(2*c, trimCompactFloor)), live...)
	}
	l.off, l.held = 0, len(live)
}

// Len returns the sequence number just past the newest entry.
func (l *MutationLog) Len() int64 { return l.base + int64(len(l.buf)-l.off) }

// Base returns the sequence number of the oldest retained entry.
func (l *MutationLog) Base() int64 { return l.base }

// At returns the entry with sequence number seq, which must be retained.
func (l *MutationLog) At(seq int64) LogEntry {
	if seq < l.base || seq >= l.Len() {
		//gclint:allow panicpath -- invariant: cursors never pass TrimTo's low-water mark
		panic("core: log sequence out of range")
	}
	return l.buf[l.off+int(seq-l.base)]
}

// TrimTo discards entries below seq (all cursors must have passed seq).
// While a checkpoint pin is active the trim is clamped to the pin, so an
// epoch's write-ahead range can never be truncated out from under it. A trim
// is O(1): it moves the offset of the oldest retained entry, and the array's
// trimmed prefix is reused when it next fills.
func (l *MutationLog) TrimTo(seq int64) {
	l.held = max(l.held, len(l.buf)-l.off)
	if l.pinned && seq > l.pin {
		seq = l.pin
	}
	if seq <= l.base {
		return
	}
	seq = min(seq, l.Len())
	l.off += int(seq - l.base)
	l.base = seq
	if l.off == len(l.buf) {
		l.buf, l.off = l.buf[:0], 0
	}
}

// Retained reports how many entries are currently held.
func (l *MutationLog) Retained() int { return len(l.buf) - l.off }

// Capacity reports the capacity of the backing array from the current base
// onward. It exists so tests can pin TrimTo's compaction behaviour.
func (l *MutationLog) Capacity() int { return cap(l.buf) - l.off }
