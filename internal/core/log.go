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
type MutationLog struct {
	entries []LogEntry
	base    int64 // sequence number of entries[0]

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
	l.entries = append(l.entries[:0:0], entries...)
	l.base = base
	l.pinned = false
}

// Append adds an entry and returns its sequence number.
func (l *MutationLog) Append(e LogEntry) int64 {
	l.entries = append(l.entries, e)
	return l.base + int64(len(l.entries)) - 1
}

// Len returns the sequence number just past the newest entry.
func (l *MutationLog) Len() int64 { return l.base + int64(len(l.entries)) }

// Base returns the sequence number of the oldest retained entry.
func (l *MutationLog) Base() int64 { return l.base }

// At returns the entry with sequence number seq, which must be retained.
func (l *MutationLog) At(seq int64) LogEntry {
	if seq < l.base || seq >= l.Len() {
		//gclint:allow panicpath -- invariant: cursors never pass TrimTo's low-water mark
		panic("core: log sequence out of range")
	}
	return l.entries[seq-l.base]
}

// trimCompactFloor keeps tiny logs from compacting on every trim: below
// this capacity the retained/capacity ratio is noise.
const trimCompactFloor = 64

// TrimTo discards entries below seq (all cursors must have passed seq).
// While a checkpoint pin is active the trim is clamped to the pin, so an
// epoch's write-ahead range can never be truncated out from under it.
//
// The common trim is an O(1) re-slice; the discarded prefix lingers in the
// backing array until the next growth reallocation drops it. Only when the
// retained suffix has shrunk below a quarter of the remaining capacity is
// it copied into a right-sized array, so a sequence of m small trims costs
// O(m) amortised instead of the old copy-the-tail behaviour's
// O(m·retained), and a huge log spike cannot pin its backing array behind a
// handful of surviving entries.
func (l *MutationLog) TrimTo(seq int64) {
	if l.pinned && seq > l.pin {
		seq = l.pin
	}
	if seq <= l.base {
		return
	}
	if seq > l.Len() {
		seq = l.Len()
	}
	n := seq - l.base
	l.entries = l.entries[n:]
	l.base = seq
	if c := cap(l.entries); c > trimCompactFloor && len(l.entries) < c/4 {
		compact := make([]LogEntry, len(l.entries))
		copy(compact, l.entries)
		l.entries = compact
	}
}

// Retained reports how many entries are currently held.
func (l *MutationLog) Retained() int { return len(l.entries) }

// Capacity reports the capacity of the backing array from the current base
// onward. It exists so tests can pin TrimTo's compaction behaviour.
func (l *MutationLog) Capacity() int { return cap(l.entries) }
