package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repligc/internal/artifact"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// Restored is the outcome of a successful recovery: a rebuilt heap plus
// everything needed to re-attach a mutator and collector and continue the
// run. Its Fingerprint has already been verified against the commit footer,
// so the heap image is bit-identical to the state the writer hashed live at
// commit time.
type Restored struct {
	Epoch       uint64
	Fingerprint uint64
	Cfg         heap.Config
	Heap        *heap.Heap

	Roots      []heap.Value
	LogBase    int64
	LogEntries []core.LogEntry

	BytesAllocated     int64
	LogWrites          int64
	MinorLogCursor     int64
	PromotedSinceMajor int64
	PromoHighWater     int64

	// Recorded space geometry, re-applied by Attach (collector
	// construction clobbers the nursery's soft limit).
	nurseryHi, nurseryNext uint64
	fromHi, fromNext       uint64
	toHi, toNext           uint64
}

// RootArray is the flat root source a recovered run starts from: the
// checkpointed root slots in their original visit order. The original run's
// structured root sources (VM registers, driver tables) do not survive a
// crash; their slots do.
type RootArray struct {
	Slots []heap.Value
}

// VisitRoots implements core.RootSource.
func (ra *RootArray) VisitRoots(v core.RootVisitor) {
	for i := range ra.Slots {
		v(&ra.Slots[i])
	}
}

// Attach wires a freshly constructed mutator/collector pair onto the
// restored state. m must have been built over r.Heap; gc must be a new
// collector over the same heap. After Attach the pair is equivalent to the
// checkpointed run at its commit point: same heap words, same retained
// mutation log, same roots (exposed through r's RootArray, also returned),
// same scheduling state.
func (r *Restored) Attach(m *core.Mutator, gc *core.Replicating) *RootArray {
	// Collector construction re-applied cfg.NurseryBytes as the nursery
	// soft limit; put the recorded geometry back.
	r.applyGeometry()
	m.Log.Restore(r.LogBase, r.LogEntries)
	m.BytesAllocated = r.BytesAllocated
	m.LogWrites = r.LogWrites
	ra := &RootArray{Slots: append([]heap.Value(nil), r.Roots...)}
	m.Roots.Register(ra)
	gc.RestoreScheduling(r.MinorLogCursor, r.PromotedSinceMajor, r.PromoHighWater)
	return ra
}

// applyGeometry writes the recorded space cursors and soft limits into the
// reconstructed heap's Space structs.
func (r *Restored) applyGeometry() {
	h := r.Heap
	h.Nursery.Hi, h.Nursery.Next = r.nurseryHi, r.nurseryNext
	h.OldFrom().Hi, h.OldFrom().Next = r.fromHi, r.fromNext
	h.OldTo().Hi, h.OldTo().Next = r.toHi, r.toNext
}

// Epochs lists the epoch numbers of the artifact files in dir, ascending.
// Missing directories list as empty.
//
//gclint:allow io -- scans the artifact directory for epoch files
func Epochs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, ent := range ents {
		var epoch uint64
		if n, _ := fmt.Sscanf(ent.Name(), "epoch-%d.ckpt", &epoch); n == 1 && filepath.Ext(ent.Name()) == ".ckpt" {
			out = append(out, epoch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// DefaultArenaLimit is the largest arena Recover maps for a snapshot: 4 GiB,
// room for rtgc's 32 MB nursery cap beside two semispaces of up to 2 031 MB.
// rtgc -checkpoint refuses a heap larger than this, so what it writes,
// rtgc -restore reads.
const DefaultArenaLimit int64 = 4 << 30

// Recover is RecoverWithin at DefaultArenaLimit, for a caller such as
// rtgc -restore that builds whatever heap the snapshot describes.
func Recover(dir string) (*Restored, error) { return RecoverWithin(dir, DefaultArenaLimit) }

// RecoverWithin loads the newest recoverable epoch in dir. Damaged epochs are
// skipped (newest first); if none survives, the returned error is a
// *artifact.CorruptError wrapping every per-epoch failure. Recovery never
// returns a heap whose fingerprint does not match its commit footer. A
// snapshot header is external input: one whose heap needs an arena of more
// than maxArena bytes is corrupt, rejected before anything is mapped.
func RecoverWithin(dir string, maxArena int64) (*Restored, error) {
	epochs, err := Epochs(dir)
	if err != nil {
		return nil, &artifact.CorruptError{Path: dir, Detail: "unreadable artifact directory", Err: err}
	}
	if len(epochs) == 0 {
		return nil, artifact.Corrupt(dir, "no checkpoint epochs")
	}
	var fails []error
	for i := len(epochs) - 1; i >= 0; i-- {
		r, err := RecoverEpoch(dir, epochs[i], maxArena)
		if err == nil {
			return r, nil
		}
		fails = append(fails, err)
	}
	return nil, &artifact.CorruptError{Path: dir, Detail: "no recoverable epoch", Err: errors.Join(fails...)}
}

// RecoverEpoch loads one specific epoch, verifying every record checksum,
// the record ordinals and order, the heap config against maxArena, the
// commit record's presence, and finally the state fingerprint against it.
func RecoverEpoch(dir string, epoch uint64, maxArena int64) (*Restored, error) {
	path := epochPath(dir, epoch)
	r := &Restored{Epoch: epoch}
	if err := readEpoch(path, r, maxArena); err != nil {
		return nil, err
	}
	r.applyGeometry()

	// Re-derive the state fingerprint from the restored image and check it
	// against the one the writer computed from the live heap. Any
	// inconsistency the checksums could not see — a patch missed, a segment
	// applied to the wrong offset — surfaces here.
	if got := r.stateFingerprint(); got != r.Fingerprint {
		return nil, artifact.Corrupt(path, "state fingerprint %#x does not match commit record %#x", got, r.Fingerprint)
	}
	return r, nil
}

// readEpoch parses one epoch file into r. The records must appear in the
// order commit writes them: the header, which sizes a fresh heap of at most
// maxArena bytes of arena, any number of segments filling its image, then
// the commit section's records, one of each, ending in the commit record.
// The reader is bounded by the file's size, so no record can claim more than
// the file holds.
//
//gclint:allow io -- opens and sizes an epoch's artifact file
//gclint:allow construct -- recovery sizes the heap from the epoch header, before any runtime exists to build it
func readEpoch(path string, r *Restored, maxArena int64) error {
	f, err := os.Open(path)
	if err != nil {
		return &artifact.CorruptError{Path: path, Detail: "unreadable artifact", Err: err}
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return &artifact.CorruptError{Path: path, Detail: "unreadable artifact", Err: err}
	}
	rr, err := artifact.NewReader(bufio.NewReaderSize(f, 1<<16), st.Size(), path, epochMagic)
	if err != nil {
		return err
	}

	want, segs := recHeader, 0
	for {
		typ, payload, err := rr.Next()
		switch {
		case want > recCommit && err == io.EOF:
			return nil
		case want > recCommit:
			return artifact.Corrupt(path, "trailing data after commit record")
		case err == io.EOF:
			return artifact.Corrupt(path, "file ends before its commit record")
		case err != nil:
			return err
		case typ != want && !(typ == recSegment && want == recSpaces):
			return artifact.Corrupt(path, "record type %d, want %d", typ, want)
		}
		want = max(typ+1, recSpaces) // the header may be followed by any number of segments, none included
		d := artifact.Dec{B: payload, Path: path}
		switch typ {
		case recHeader:
			ver := d.U64()
			epoch := d.U64()
			cfg := heap.Config{
				NurseryBytes:    d.I64(),
				NurseryCapBytes: d.I64(),
				OldSemiBytes:    d.I64(),
			}
			fromOldB := d.Bool()
			if err := d.Done(); err != nil {
				return err
			}
			if ver != version {
				return artifact.Corrupt(path, "format version %d, want %d", ver, version)
			}
			if epoch != r.Epoch {
				return artifact.Corrupt(path, "header claims epoch %d, file is named for %d", epoch, r.Epoch)
			}
			if cfg.NurseryBytes <= 0 || cfg.OldSemiBytes <= 0 {
				return artifact.Corrupt(path, "implausible heap config %+v", cfg)
			}
			// Each size is bounded before they are summed, so the sum cannot wrap.
			if cfg.NurseryBytes > maxArena || cfg.NurseryCapBytes > maxArena || cfg.OldSemiBytes > maxArena || cfg.ArenaBytes() > maxArena {
				return artifact.Corrupt(path, "heap config %+v needs more than the %d-byte arena limit", cfg, maxArena)
			}
			r.Cfg = cfg
			r.Heap = heap.New(cfg)
			if fromOldB {
				r.Heap.SwapOld()
			}
		case recSegment:
			space := d.U8()
			start := d.U64()
			count := d.U64()
			var sp *heap.Space
			switch space {
			case spaceOldFrom:
				sp = r.Heap.OldFrom()
			case spaceNursery:
				sp = &r.Heap.Nursery
			default:
				return artifact.Corrupt(path, "segment %d: unknown space id %d", segs, space)
			}
			if start < sp.Lo || start > sp.Cap || count > sp.Cap-start {
				return artifact.Corrupt(path, "segment %d: range [%d,%d) outside space %s", segs, start, start+count, sp.Name)
			}
			if uint64(len(d.B)) != count*heap.BytesPerWord {
				return artifact.Corrupt(path, "segment %d: payload %d bytes, want %d words", segs, len(d.B), count)
			}
			for i := uint64(0); i < count; i++ {
				r.Heap.SetWord(start+i, heap.Value(d.U64()))
			}
			segs++
		case recSpaces:
			r.nurseryHi, r.nurseryNext = d.U64(), d.U64()
			r.fromHi, r.fromNext = d.U64(), d.U64()
			r.toHi, r.toNext = d.U64(), d.U64()
			if err := checkSpace(path, "nursery", &r.Heap.Nursery, r.nurseryHi, r.nurseryNext); err != nil {
				return err
			}
			if err := checkSpace(path, "old-from", r.Heap.OldFrom(), r.fromHi, r.fromNext); err != nil {
				return err
			}
			if err := checkSpace(path, "old-to", r.Heap.OldTo(), r.toHi, r.toNext); err != nil {
				return err
			}
		case recPatch:
			n, words := d.U64(), uint64(r.Cfg.ArenaBytes()/heap.BytesPerWord)
			if n > words {
				return artifact.Corrupt(path, "implausible patch count %d", n)
			}
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				idx := d.U64()
				val := heap.Value(d.U64())
				if idx >= words {
					return artifact.Corrupt(path, "patch %d: arena index %d out of range", i, idx)
				}
				r.Heap.SetWord(idx, val)
			}
		case recLog:
			r.LogBase = d.I64()
			n := d.U64()
			if n > uint64(len(d.B))/25 { // 25 payload bytes an entry: allocate no more than the record can hold
				return artifact.Corrupt(path, "implausible log entry count %d", n)
			}
			r.LogEntries = make([]core.LogEntry, 0, n)
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				e := core.LogEntry{
					Obj:  heap.Value(d.U64()),
					Slot: int32(uint32(d.U64())),
					Len:  int32(uint32(d.U64())),
				}
				e.Byte = d.Bool()
				r.LogEntries = append(r.LogEntries, e)
			}
		case recRoots:
			n := d.U64()
			if n > uint64(len(d.B))/8 {
				return artifact.Corrupt(path, "implausible root count %d", n)
			}
			r.Roots = make([]heap.Value, 0, n)
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				r.Roots = append(r.Roots, heap.Value(d.U64()))
			}
		case recSched:
			r.BytesAllocated = d.I64()
			r.LogWrites = d.I64()
			r.MinorLogCursor = d.I64()
			r.PromotedSinceMajor = d.I64()
			r.PromoHighWater = d.I64()
		case recCommit:
			r.Fingerprint = d.U64()
		}
		if err := d.Done(); err != nil {
			return err
		}
	}
}

// checkSpace validates recorded geometry against the reconstructed space.
func checkSpace(path, name string, sp *heap.Space, hi, next uint64) error {
	if hi < sp.Lo || hi > sp.Cap || next < sp.Lo || next > hi {
		return artifact.Corrupt(path, "%s geometry hi=%d next=%d outside [%d,%d]", name, hi, next, sp.Lo, sp.Cap)
	}
	return nil
}
