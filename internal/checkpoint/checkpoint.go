package checkpoint

import (
	"bufio"
	"fmt"
	"os"
	"sort"

	"repligc/internal/artifact"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// Config parameterises a Writer.
type Config struct {
	// Dir is the artifact directory (created on first use). Each committed
	// epoch leaves one file, epoch-<epoch>.ckpt, in it.
	Dir string
	// BudgetBytes bounds the snapshot copying added to any one pause —
	// the checkpoint analogue of the paper's copy limit L — within what is
	// left of the pause's own budget. Zero defaults to 128 KB.
	BudgetBytes int64
	// EveryBytes throttles epoch starts: a new epoch begins only after the
	// mutator has allocated this much since the previous epoch began. Zero
	// means continuous checkpointing (a new epoch at the first quiescent
	// pause after each commit).
	EveryBytes int64
}

// commitSlack bounds the completing increment, in budgets: an epoch commits
// at a quiescent pause once its remaining copy (stable-prefix tail plus
// nursery) fits this many BudgetBytes. It mirrors the collector's own
// completion pauses, which also run past the steady budget to reach a flip.
const commitSlack = 4

// keepEpochs is how many committed epochs are retained (older files are
// deleted): two, so a crash while damaging the newest epoch still leaves a
// complete predecessor.
const keepEpochs = 2

// EpochInfo describes one committed epoch. The type is rig's, so that a run's
// report (rig.Stats) carries what its writer persisted.
type EpochInfo = rig.EpochInfo

// Stats aggregates a Writer's lifetime activity (rig.CheckpointStats).
type Stats = rig.CheckpointStats

// Writer incrementally persists checkpoints of a running collector. Attach
// it with Replicating.SetCheckpointer; every collection pause then advances
// the open epoch by at most BudgetBytes of copying, and by no more words than
// the pause may still begin before its deadline (its BudgetWords), inside the
// pause and charged to simtime.AcctCheckpoint, so checkpoint intrusion is
// visible in pause times, MMU curves and the per-account breakdown. A commit
// is not metered: the pause that runs one has no budget, and the record says
// so.
//
// The protocol is the paper's replication idea turned on persistence. An
// epoch begins only at a quiescent pause (no collection in flight): the
// writer pins the mutation log at the collector's pending cursor and starts
// copying the old from-space prefix that existed at begin time. That prefix
// is stable against everything except logged mutation — promotions land
// above it, scan rewrites target the promoting cycle's own region, and flip
// redirections only touch slots with pinned log entries — so the mutation
// log is exactly the write-ahead log the snapshot needs. The copy frontier
// is raised to the current allocation cursor at each quiescent pause; when
// the remainder fits in one budget the epoch commits: tail and nursery are
// copied verbatim, and the commit section follows them in the same file —
// every pinned-entry slot re-read and written as a patch (entries are
// value-free, so the patch carries the commit-time value), the retained log
// suffix, roots and scheduling state, sealed by a fingerprint of the live
// state — before one rename publishes the epoch. A major flip swaps the old
// semispaces underneath the snapshot, so an epoch that sees one aborts and
// restarts clean.
type Writer struct {
	cfg   Config
	stats Stats

	// The epoch state below changes only inside a pause: PauseCheckpoint runs
	// inside the collector's pause window, and the cursor arithmetic is only
	// sound against a stopped mutator.

	open        bool
	cursor      uint64
	copyTarget  uint64
	walBase     int64
	startMajors int
	beginAlloc  int64
	epochPauses int

	epoch    uint64 // next epoch number to commit
	retained []uint64
	tmp      *os.File // the open epoch's file, renamed into place at commit
	buf      *bufio.Writer
	rec      *artifact.Writer
}

// NewWriter builds a Writer. The directory is created lazily, when the
// first epoch begins.
func NewWriter(cfg Config) *Writer {
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = 128 << 10
	}
	return &Writer{cfg: cfg, epoch: 1}
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats { return w.stats }

// PauseCheckpoint implements core.Checkpointer. It runs at the tail of
// every collection pause, inside the pause window, and reports whether it
// committed the epoch.
func (w *Writer) PauseCheckpoint(m *core.Mutator, p core.CheckpointPoint) bool {
	if w.open && (p.MajorActive || p.MajorCollections != w.startMajors) {
		// The major will (or did) swap the old semispaces: every segment
		// copied so far describes a space about to become the reserve.
		w.abort(m)
	}
	if !w.open {
		if !p.Quiescent {
			return false
		}
		if w.cfg.EveryBytes > 0 && w.stats.Committed > 0 && m.BytesAllocated < w.beginAlloc+w.cfg.EveryBytes {
			return false
		}
		if !w.begin(m, p) {
			return false
		}
	}
	w.epochPauses++
	if p.Quiescent {
		w.copyTarget = m.H.OldFrom().Next
	}
	slackWords := uint64(commitSlack*w.cfg.BudgetBytes) / heap.BytesPerWord
	if p.Quiescent && w.remainingWords(m) <= slackWords {
		w.commit(m, p)
		return true
	}
	w.copyIncrement(m, uint64(min(w.cfg.BudgetBytes/heap.BytesPerWord, int64(p.BudgetWords))))
	return false
}

// ForceCommit drives the open epoch (or a fresh one) to commit inside a
// pause of its own, which the collector brackets and records. The collector
// must be quiescent — call FinishCycles first. It guarantees at least one
// committed epoch on success, regardless of budget, so short runs still
// leave a recoverable artifact.
func (w *Writer) ForceCommit(m *core.Mutator, gc *core.Replicating) error {
	p := gc.CheckpointNow()
	if !p.Quiescent {
		return fmt.Errorf("checkpoint: ForceCommit with a collection in flight (run FinishCycles first)")
	}
	gc.CheckpointPause(m, func() {
		if !w.open {
			w.begin(m, p)
		}
		if w.open {
			w.epochPauses++
			w.copyTarget = m.H.OldFrom().Next
			w.commit(m, p)
		}
	})
	if w.stats.LastErr != nil {
		return w.stats.LastErr
	}
	return nil
}

// remainingWords is the copying left before the epoch could commit right
// now: the uncopied stable prefix plus the nursery contents that a commit
// captures verbatim.
func (w *Writer) remainingWords(m *core.Mutator) uint64 {
	from := m.H.OldFrom()
	rem := from.Next - w.cursor
	rem += m.H.Nursery.Next - m.H.Nursery.Lo
	return rem
}

// fail aborts the epoch on an I/O error. Checkpointing is best-effort
// against the host filesystem: the run continues, the error is surfaced
// through Stats and ForceCommit.
func (w *Writer) fail(m *core.Mutator, err error) {
	w.stats.LastErr = err
	w.abort(m)
}

// abort invalidates the open epoch and releases its log pin.
//
//gclint:allow io -- closes and removes the aborted epoch's temporary file
func (w *Writer) abort(m *core.Mutator) {
	if !w.open {
		return
	}
	if w.tmp != nil {
		w.tmp.Close()
		os.Remove(w.tmp.Name())
		w.tmp, w.buf, w.rec = nil, nil, nil
	}
	m.Log.Unpin()
	w.open = false
	w.stats.Aborted++
}

// begin opens a new epoch at a quiescent pause: pin the log at the
// collector's pending cursor (everything a restored run must re-consume or
// patch is at or above it) and start the epoch's file.
//
//gclint:allow io -- creates the artifact directory and the epoch's temporary file
func (w *Writer) begin(m *core.Mutator, p core.CheckpointPoint) bool {
	if err := os.MkdirAll(w.cfg.Dir, 0o777); err != nil {
		w.stats.LastErr = err
		return false
	}
	f, err := os.Create(epochPath(w.cfg.Dir, w.epoch) + ".tmp")
	if err != nil {
		w.stats.LastErr = err
		return false
	}
	w.tmp = f
	w.buf = bufio.NewWriterSize(f, 1<<16)
	w.rec = artifact.NewWriter(w.buf, epochMagic)

	w.open = true
	w.walBase = p.MinorLogCursor
	m.Log.Pin(w.walBase)
	w.startMajors = p.MajorCollections
	w.cursor = m.H.OldFrom().Lo
	w.copyTarget = m.H.OldFrom().Next
	w.beginAlloc = m.BytesAllocated
	w.epochPauses = 0

	cfg := heapConfigOf(m.H)
	var e artifact.Enc
	e.U64(version)
	e.U64(w.epoch)
	e.I64(cfg.NurseryBytes)
	e.I64(cfg.NurseryCapBytes)
	e.I64(cfg.OldSemiBytes)
	e.Bool(m.H.OldFrom().Name == "oldB")
	w.rec.Record(recHeader, e.B)
	if err := w.rec.Err(); err != nil {
		w.fail(m, err)
		return false
	}
	return true
}

// writeSegment frames one contiguous run of arena words and charges its
// copying cost to the checkpoint account.
func (w *Writer) writeSegment(m *core.Mutator, space uint8, start, count uint64) {
	if count == 0 {
		return
	}
	var e artifact.Enc
	e.U8(space)
	e.U64(start)
	e.U64(count)
	for i := start; i < start+count; i++ {
		e.U64(uint64(m.H.Word(i)))
	}
	w.rec.Record(recSegment, e.B)
	w.stats.WordsCopied += int64(count)
	m.Clock.Charge(simtime.AcctCheckpoint, simtime.Duration(count)*m.Cost.CopyWord)
}

// copyIncrement advances the snapshot cursor by at most budgetWords.
func (w *Writer) copyIncrement(m *core.Mutator, budgetWords uint64) {
	if w.cursor >= w.copyTarget {
		return
	}
	n := w.copyTarget - w.cursor
	if n > budgetWords {
		n = budgetWords
	}
	w.writeSegment(m, spaceOldFrom, w.cursor, n)
	w.cursor += n
	if err := w.rec.Err(); err != nil {
		w.fail(m, err)
	}
}

// commit seals the epoch: copy the stable-prefix tail and the nursery,
// append the commit section (spaces, patches, retained log, roots,
// scheduling state, fingerprint) to the same file, and publish it with one
// rename.
//
//gclint:allow io -- finishes and renames the epoch's file into place
func (w *Writer) commit(m *core.Mutator, p core.CheckpointPoint) {
	from := m.H.OldFrom()
	if w.cursor < from.Next {
		w.writeSegment(m, spaceOldFrom, w.cursor, from.Next-w.cursor)
		w.cursor = from.Next
	}
	w.writeSegment(m, spaceNursery, m.H.Nursery.Lo, m.H.Nursery.Next-m.H.Nursery.Lo)
	imageBytes := w.rec.Len()

	st := captureState(m, p)
	fp := st.stateFingerprint()
	w.writeCommitSection(m, st, fp)
	commitBytes := w.rec.Len() - imageBytes
	err := w.buf.Flush() // bufio latches the first write error, so this reports any record's
	if cerr := w.tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.tmp.Name(), epochPath(w.cfg.Dir, w.epoch))
	}
	if err != nil {
		w.fail(m, err)
		return
	}
	w.tmp, w.buf, w.rec = nil, nil, nil

	m.Log.Unpin()
	w.open = false
	w.stats.Committed++
	w.stats.SnapshotBytes += imageBytes
	w.stats.WALBytes += commitBytes
	w.stats.Epochs = append(w.stats.Epochs, EpochInfo{Epoch: w.epoch, Fingerprint: fp, Pauses: w.epochPauses})
	w.retained = append(w.retained, w.epoch)
	w.prune()
	w.epoch++
}

// patchSet materialises the commit section's patch list: the deduplicated,
// sorted arena indices covered by every pinned log entry, paired with their
// commit-time values. Only words inside the snapshot's segments are kept — a
// logged slot whose object died (its nursery words recycled by a later
// cycle) is not part of the restored image.
func (w *Writer) patchSet(m *core.Mutator) []patch {
	lo := w.walBase
	if b := m.Log.Base(); b > lo {
		lo = b
	}
	var idxs []uint64
	for seq := lo; seq < m.Log.Len(); seq++ {
		e := m.Log.At(seq)
		if e.Byte {
			first := heap.WordIndex(e.Obj, int(e.Slot)/heap.BytesPerWord)
			last := heap.WordIndex(e.Obj, int(e.Slot+e.Len-1)/heap.BytesPerWord)
			for idx := first; idx <= last; idx++ {
				idxs = append(idxs, idx)
			}
		} else {
			idxs = append(idxs, heap.WordIndex(e.Obj, int(e.Slot)))
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	from, nur := m.H.OldFrom(), &m.H.Nursery
	out := make([]patch, 0, len(idxs))
	var prev uint64
	for i, idx := range idxs {
		if i > 0 && idx == prev {
			continue
		}
		prev = idx
		inFrom := idx >= from.Lo && idx < from.Next
		inNursery := idx >= nur.Lo && idx < nur.Next
		if !inFrom && !inNursery {
			continue
		}
		out = append(out, patch{idx: idx, val: m.H.Word(idx)})
	}
	return out
}

type patch struct {
	idx uint64
	val heap.Value
}

// writeCommitSection appends the epoch's commit section to its file.
func (w *Writer) writeCommitSection(m *core.Mutator, st *Restored, fp uint64) {
	var e artifact.Enc
	e.U64(st.nurseryHi)
	e.U64(st.nurseryNext)
	e.U64(st.fromHi)
	e.U64(st.fromNext)
	e.U64(st.toHi)
	e.U64(st.toNext)
	w.rec.Record(recSpaces, e.B)

	patches := w.patchSet(m)
	w.stats.PatchWords += int64(len(patches))
	e = artifact.Enc{}
	e.U64(uint64(len(patches)))
	for _, p := range patches {
		e.U64(p.idx)
		e.U64(uint64(p.val))
	}
	w.rec.Record(recPatch, e.B)
	m.Clock.Charge(simtime.AcctCheckpoint, simtime.Duration(len(patches))*m.Cost.LogWrite)

	e = artifact.Enc{}
	e.I64(st.LogBase)
	e.U64(uint64(len(st.LogEntries)))
	for _, le := range st.LogEntries {
		e.U64(uint64(le.Obj))
		e.U64(uint64(uint32(le.Slot)))
		e.U64(uint64(uint32(le.Len)))
		e.Bool(le.Byte)
	}
	w.rec.Record(recLog, e.B)
	m.Clock.Charge(simtime.AcctCheckpoint, simtime.Duration(len(st.LogEntries))*m.Cost.LogWrite)

	e = artifact.Enc{}
	e.U64(uint64(len(st.Roots)))
	for _, r := range st.Roots {
		e.U64(uint64(r))
	}
	w.rec.Record(recRoots, e.B)
	m.Clock.Charge(simtime.AcctCheckpoint, simtime.Duration(len(st.Roots))*m.Cost.RootUpdate)

	e = artifact.Enc{}
	e.I64(st.BytesAllocated)
	e.I64(st.LogWrites)
	e.I64(st.MinorLogCursor)
	e.I64(st.PromotedSinceMajor)
	e.I64(st.PromoHighWater)
	w.rec.Record(recSched, e.B)

	e = artifact.Enc{}
	e.U64(fp)
	w.rec.Record(recCommit, e.B)
}

// prune deletes committed epochs beyond the retention window.
//
//gclint:allow io -- deletes artifact files of epochs beyond the retention window
func (w *Writer) prune() {
	if n := len(w.retained); n > keepEpochs {
		for _, old := range w.retained[:n-keepEpochs] {
			os.Remove(epochPath(w.cfg.Dir, old))
		}
		w.retained = append(w.retained[:0], w.retained[n-keepEpochs:]...)
	}
}

// TempDir creates a scratch artifact directory for callers — benchmarks,
// smoke tests — that are not themselves on the I/O boundary, and returns it
// with a cleanup function. The checkpoint package owns all artifact-dir
// lifecycle so filesystem access stays confined here.
//
//gclint:allow io -- owns throwaway checkpoint artifact directories and their cleanup
func TempDir(pattern string) (string, func(), error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
