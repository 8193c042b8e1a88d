package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"repligc/internal/artifact"
	"repligc/internal/core"
)

// TestTornLengthAllocatesNothing is the recovery-level form of the frame
// reader's bound: an epoch file that ends in a record header claiming a
// gibibyte is rejected against the file's size. The reader used to allocate
// the claim before noticing the file was 21 bytes long.
func TestTornLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	torn := []byte(epochMagic)
	torn = binary.LittleEndian.AppendUint32(torn, 0)
	torn = append(torn, recHeader)
	torn = binary.LittleEndian.AppendUint32(torn, 1<<30)
	if err := os.WriteFile(epochPath(dir, 1), torn, 0o666); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Recover(dir)
	runtime.ReadMemStats(&after)
	var ce *artifact.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Recover returned %v, want a *artifact.CorruptError", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting a torn length word allocated %d bytes", got)
	}
}

// reframe re-frames a genuine artifact — ordinals and checksums valid —
// after edit has had its way with each record's payload.
func reframe(t testing.TB, data []byte, path, magic string, edit func(typ uint8, payload []byte)) []byte {
	rr, err := artifact.NewReader(bytes.NewReader(data), int64(len(data)), path, magic)
	if err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	fw := artifact.NewWriter(&forged, magic)
	for {
		typ, payload, err := rr.Next()
		if err != nil {
			break
		}
		edit(typ, payload)
		fw.Record(typ, payload)
	}
	return forged.Bytes()
}

// forgeEpoch rewrites the newest epoch's file in dir through reframe and
// returns that epoch.
func forgeEpoch(t *testing.T, dir string, edit func(typ uint8, payload []byte)) uint64 {
	epochs, _ := Epochs(dir)
	epoch := epochs[len(epochs)-1]
	path := epochPath(dir, epoch)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, reframe(t, data, path, epochMagic, edit), 0o666); err != nil {
		t.Fatal(err)
	}
	return epoch
}

// oldSemiAt is where an epoch header's payload holds OldSemiBytes.
const oldSemiAt = 32

// TestForgedSegmentStartRejected re-frames a genuine epoch file with its first
// segment claiming to start far past its space. The range check subtracted
// before comparing, wrapped, and recovery died indexing the arena; a forged
// file is still external input.
func TestForgedSegmentStartRejected(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := referenceRun(dir, 9, 400, 4<<10); err != nil {
		t.Fatal(err)
	}
	moved := false
	epoch := forgeEpoch(t, dir, func(typ uint8, payload []byte) {
		if typ == recSegment && !moved {
			binary.LittleEndian.PutUint64(payload[1:], 1<<29) // the start word
			moved = true
		}
	})
	var ce *artifact.CorruptError
	if _, err := RecoverEpoch(dir, epoch, matrixHeap.ArenaBytes()); !errors.As(err, &ce) {
		t.Fatalf("RecoverEpoch returned %v, want a *artifact.CorruptError", err)
	}
}

// TestOversizedHeapConfigRejected re-frames a genuine epoch file whose header
// asks for a larger heap than the caller's arena limit: a terabyte
// semispace, which the old per-space bound let through to the allocator, and
// one only a megabyte past the matrix's own heap. Recovery must refuse it as
// corrupt from the header — before a heap is built, which the fingerprint
// check would only have caught after mapping it.
func TestOversizedHeapConfigRejected(t *testing.T) {
	for _, c := range []struct {
		oldSemi, limit int64
	}{
		{1 << 40, DefaultArenaLimit},
		{matrixHeap.OldSemiBytes + 1<<20, matrixHeap.ArenaBytes()},
	} {
		dir := t.TempDir()
		if _, _, _, err := referenceRun(dir, 9, 400, 4<<10); err != nil {
			t.Fatal(err)
		}
		epoch := forgeEpoch(t, dir, func(typ uint8, payload []byte) {
			if typ == recHeader {
				binary.LittleEndian.PutUint64(payload[oldSemiAt:], uint64(c.oldSemi))
			}
		})
		_, err := RecoverEpoch(dir, epoch, c.limit)
		var ce *artifact.CorruptError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), "arena limit") {
			t.Fatalf("old semispace %d under limit %d: RecoverEpoch returned %v, want the arena limit's *artifact.CorruptError", c.oldSemi, c.limit, err)
		}
	}
}

// TestVersionOneRejected holds recovery to having no compatibility reader:
// an epoch file whose header claims version 1 is refused as typed
// corruption.
func TestVersionOneRejected(t *testing.T) {
	var ce *artifact.CorruptError
	dir := t.TempDir()
	if _, _, _, err := referenceRun(dir, 9, 400, 4<<10); err != nil {
		t.Fatal(err)
	}
	epoch := forgeEpoch(t, dir, func(typ uint8, payload []byte) {
		if typ == recHeader {
			binary.LittleEndian.PutUint64(payload, 1) // the version word
		}
	})
	if _, err := RecoverEpoch(dir, epoch, matrixHeap.ArenaBytes()); !errors.As(err, &ce) || !strings.Contains(err.Error(), "format version 1") {
		t.Errorf("RecoverEpoch over a version-1 header returned %v, want the version's *artifact.CorruptError", err)
	}
}

// FuzzRecover holds recovery to the crash matrix's contract on an arbitrary
// epoch file: a fingerprint-verified heap that audits clean, or a
// *artifact.CorruptError — never a panic, never anything else.
func FuzzRecover(f *testing.F) {
	ref := f.TempDir()
	w, _, _, err := referenceRun(ref, 9, 400, 4<<10)
	if err != nil {
		f.Fatal(err)
	}
	epoch := w.Stats().Epochs[w.Stats().Committed-1].Epoch
	data, err := os.ReadFile(epochPath(ref, epoch))
	if err != nil {
		f.Fatal(err)
	}
	cs := commitStart(data)
	flipped := append([]byte(nil), data...)
	flipped[(cs+len(flipped))/2] ^= 0x10
	f.Add(data)
	f.Add(data[:len(data)*2/3])
	f.Add(flipped)
	f.Add(append(append([]byte(nil), data...), data[len(epochMagic):]...))
	f.Add(data[:cs]) // the image section alone: a crash before the commit section
	f.Add([]byte(epochMagic))
	f.Add(reframe(f, data, "epoch", epochMagic, func(typ uint8, payload []byte) {
		if typ == recHeader {
			binary.LittleEndian.PutUint64(payload[oldSemiAt:], 1<<40)
		}
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(epochPath(dir, epoch), data, 0o666); err != nil {
			t.Fatal(err)
		}
		r, err := RecoverWithin(dir, matrixHeap.ArenaBytes())
		if err != nil {
			var ce *artifact.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		m, _, err := rebuild(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.AuditHeap(m); err != nil {
			t.Fatalf("recovered a heap that does not audit: %v", err)
		}
	})
}
