package checkpoint_test

// The cross-codec pin. The checkpoint epoch file and the serving-trace
// artifact claim one frame grammar,
//
//	magic[8] | frame* ,  frame := seq u32 | type u8 | len u32 | payload | crc u32
//
// (little-endian, crc = IEEE CRC-32 of the frame before it, seq the frame's
// ordinal). This test holds both packages to it from outside, through their
// public entry points only, against a third reference codec written here from
// the grammar: what either writer emits parses under the reference and
// rebuilds byte-identically, and every frame-level damage — flipped byte,
// truncation, duplicated record, and in the epoch file reordered record — is
// rejected by both readers with their typed corruption error, as is each
// format's frames transplanted under the other's magic. It was written
// against the two hand-copied codecs and must pass over whatever replaces
// them, which is why the typed error is recognised by its type's name.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/simtime"
	"repligc/internal/workload"
)

const magicLen = 8

type refRecord struct {
	typ     uint8
	payload []byte
}

// refParse is the reference reader: strict about ordinals, checksums and
// length, silent about record meaning.
func refParse(data []byte) (magic string, recs []refRecord, err error) {
	if len(data) < magicLen {
		return "", nil, fmt.Errorf("short magic")
	}
	magic, data = string(data[:magicLen]), data[magicLen:]
	for seq := uint32(0); len(data) > 0; seq++ {
		if len(data) < 13 {
			return "", nil, fmt.Errorf("frame %d: truncated header", seq)
		}
		n := uint64(binary.LittleEndian.Uint32(data[5:]))
		if uint64(len(data)) < 13+n {
			return "", nil, fmt.Errorf("frame %d: truncated payload", seq)
		}
		if got := binary.LittleEndian.Uint32(data[0:]); got != seq {
			return "", nil, fmt.Errorf("frame %d: ordinal %d", seq, got)
		}
		if crc32.ChecksumIEEE(data[:9+n]) != binary.LittleEndian.Uint32(data[9+n:]) {
			return "", nil, fmt.Errorf("frame %d: checksum", seq)
		}
		recs = append(recs, refRecord{typ: data[4], payload: data[9 : 9+n]})
		data = data[13+n:]
	}
	return magic, recs, nil
}

// refBuild is the reference writer.
func refBuild(magic string, recs []refRecord) []byte {
	out := []byte(magic)
	for seq, r := range recs {
		start := len(out)
		out = binary.LittleEndian.AppendUint32(out, uint32(seq))
		out = append(out, r.typ)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.payload)))
		out = append(out, r.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	}
	return out
}

// frameSpans returns each frame's [lo, hi) byte range in a well-formed file.
func frameSpans(t *testing.T, data []byte) [][2]int {
	t.Helper()
	_, recs, err := refParse(data)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	var spans [][2]int
	off := magicLen
	for _, r := range recs {
		spans = append(spans, [2]int{off, off + 13 + len(r.payload)})
		off += 13 + len(r.payload)
	}
	return spans
}

// damages are the frame-level corruptions of the crash matrix, applied at
// exact frame coordinates: frame k is the one damaged, and frame k+1, where
// there is one, the one it is reordered with. Each returns a fresh slice.
func damages(t *testing.T, data []byte, k int) map[string][]byte {
	t.Helper()
	spans := frameSpans(t, data)
	if k < 0 || k >= len(spans) {
		t.Fatalf("cannot damage frame %d of %d", k, len(spans))
	}
	mid := spans[k]
	clone := func() []byte { return append([]byte(nil), data...) }
	flip := func(at int) []byte { b := clone(); b[at] ^= 0x40; return b }

	out := map[string][]byte{
		"flipped payload byte":  flip((mid[0] + 9 + mid[1] - 4) / 2),
		"flipped ordinal":       flip(mid[0]),
		"flipped type":          flip(mid[0] + 4),
		"flipped length":        flip(mid[0] + 5),
		"flipped checksum":      flip(mid[1] - 1),
		"flipped magic":         flip(0),
		"truncated mid-frame":   clone()[:(mid[0]+mid[1])/2],
		"truncated mid-header":  clone()[:mid[0]+6],
		"truncated at boundary": clone()[:spans[len(spans)-1][0]],
		"magic only":            clone()[:magicLen],
		"empty":                 nil,
		"duplicated at end":     append(clone(), data[mid[0]:mid[1]]...),
		"duplicated in place":   append(append(clone()[:mid[1]], data[mid[0]:mid[1]]...), data[mid[1]:]...),
		"dropped record":        append(clone()[:mid[0]], data[mid[1]:]...),
	}
	if k+1 < len(spans) {
		next := spans[k+1]
		magic, recs, _ := refParse(data)
		swapped := append([]refRecord(nil), recs...)
		swapped[k], swapped[k+1] = swapped[k+1], swapped[k]
		out["reordered"] = append(append(append(clone()[:mid[0]], data[next[0]:next[1]]...), data[mid[0]:mid[1]]...), data[next[1]:]...)
		// Well-framed (ordinals and checksums recomputed) but out of order:
		// must still be refused, on content.
		out["reordered and renumbered"] = refBuild(magic, swapped)
	}
	return out
}

// isCorrupt recognises the typed corruption error of either package, under
// whatever package owns the type.
func isCorrupt(err error) bool {
	return err != nil && strings.HasSuffix(fmt.Sprintf("%T", err), "CorruptError")
}

// checkpointEpoch runs a small seeded workload with a checkpoint writer and
// returns the newest epoch's file name and bytes.
func checkpointEpoch(t *testing.T) (name string, data []byte) {
	t.Helper()
	dir := t.TempDir()
	h := heap.New(heap.Config{NurseryBytes: 16 << 10, NurseryCapBytes: 64 << 10, OldSemiBytes: 512 << 10})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, core.Config{
		NurseryBytes: 16 << 10, MajorThresholdBytes: 192 << 10, CopyLimitBytes: 8 << 10,
		IncrementalMinor: true, IncrementalMajor: true,
	})
	m.AttachGC(gc)
	w := checkpoint.NewWriter(checkpoint.Config{Dir: dir, BudgetBytes: 4 << 10})
	gc.SetCheckpointer(w)
	if err := gctest.NewDriver(m, 5).Step(2500); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatalf("FinishCycles: %v", err)
	}
	if err := w.ForceCommit(m, gc); err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}
	epochs, err := checkpoint.Epochs(dir)
	if err != nil || len(epochs) == 0 {
		t.Fatalf("Epochs: %v (%d)", err, len(epochs))
	}
	name = fmt.Sprintf("epoch-%08d.ckpt", epochs[len(epochs)-1])
	data, err = os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return name, data
}

// epochSections splits an epoch file's frames into its two sections, read
// off the record types alone: the image is frame 0 (the header) and the run
// of segment frames after it, which share frame 1's type; the commit section
// is every frame after that run. It fails the test unless each section has
// a frame with a neighbour on both sides to damage.
func epochSections(t *testing.T, data []byte) (image, commit [2]int) {
	t.Helper()
	_, recs, err := refParse(data)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	end := 1
	for end < len(recs) && recs[end].typ == recs[1].typ {
		end++
	}
	if end < 3 || len(recs)-end < 3 {
		t.Fatalf("epoch has %d image frames and %d commit frames; need at least 3 of each", end, len(recs)-end)
	}
	return [2]int{0, end}, [2]int{end, len(recs)}
}

// recoverFile writes one epoch file into a fresh directory — no older epoch
// to fall back on — and recovers it.
func recoverFile(t *testing.T, name string, data []byte) (*checkpoint.Restored, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
		t.Fatal(err)
	}
	return checkpoint.Recover(dir)
}

func traceArtifact(t *testing.T) []byte {
	t.Helper()
	spec, err := workload.ParseSpec([]byte(`{"name":"cross","seed":3,"duration_ms":6000,"cohorts":[{"name":"c",
		"arrival":{"law":"poisson","rate_per_sec":600},
		"profile":{"objs_per_req":2,"obj_words":4,"retain_pct":0.5,"session_words":8,"session_requests":3,"mutations_per_req":2,"work_steps":10},
		"slo":{"target_ms":1,"deadline_ms":5}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := workload.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestCrossCodec(t *testing.T) {
	trace := traceArtifact(t)
	epochName, epoch := checkpointEpoch(t)

	// One grammar: both writers' output parses under the reference and the
	// reference writer reproduces it byte for byte.
	magics := map[string]string{}
	for name, data := range map[string][]byte{"trace": trace, epochName: epoch} {
		magic, recs, err := refParse(data)
		if err != nil {
			t.Fatalf("%s: does not parse under the reference grammar: %v", name, err)
		}
		if !bytes.Equal(refBuild(magic, recs), data) {
			t.Fatalf("%s: reference writer does not reproduce the file", name)
		}
		magics[name] = magic
	}
	if n := len(frameSpans(t, trace)); n != 1 {
		t.Fatalf("trace artifact has %d frames; it is one record", n)
	}

	// The undamaged inputs are accepted.
	if _, err := workload.DecodeTrace(trace); err != nil {
		t.Fatalf("DecodeTrace(pristine): %v", err)
	}
	ref, err := recoverFile(t, epochName, epoch)
	if err != nil {
		t.Fatalf("Recover(pristine): %v", err)
	}

	// Same rejection, damage by damage, from both readers. The trace's one
	// record takes every damage but the reorderings; the epoch file takes
	// the whole set twice, once in the middle of each section.
	for name, bad := range damages(t, trace, 0) {
		if _, err := workload.DecodeTrace(bad); !isCorrupt(err) {
			t.Errorf("trace, %s: DecodeTrace returned %T %v, want the typed corruption error", name, err, err)
		}
	}
	image, commit := epochSections(t, epoch)
	for _, sec := range []struct {
		name string
		k    int
	}{
		{"image", (image[0] + image[1]) / 2},
		{"commit", (commit[0] + commit[1]) / 2},
	} {
		for name, bad := range damages(t, epoch, sec.k) {
			r, err := recoverFile(t, epochName, bad)
			if err == nil && sec.name == "image" && name == "reordered and renumbered" && r.Fingerprint == ref.Fingerprint {
				continue // segments carry their own offsets: exact recovery is the other contractual ending
			}
			if !isCorrupt(err) {
				t.Errorf("%s, %s section, %s: Recover returned (%v, %T %v), want the typed corruption error", epochName, sec.name, name, r != nil, err, err)
			}
		}
	}

	// Transplants: each format's frames under the other's magic are well
	// framed for the receiving reader, which must refuse them on content,
	// typed, without panicking.
	_, traceRecs, _ := refParse(trace)
	_, epochRecs, _ := refParse(epoch)
	if _, err := workload.DecodeTrace(refBuild(magics["trace"], epochRecs)); !isCorrupt(err) {
		t.Errorf("%s frames under the trace magic: DecodeTrace returned %T %v", epochName, err, err)
	}
	if _, err := recoverFile(t, epochName, refBuild(magics[epochName], traceRecs)); !isCorrupt(err) {
		t.Errorf("trace frames under the %s magic: Recover returned %T %v", epochName, err, err)
	}

	// And an epoch file rebuilt by the reference writer recovers to the same
	// fingerprint as the original.
	r, err := recoverFile(t, epochName, refBuild(magics[epochName], epochRecs))
	if err != nil || r.Fingerprint != ref.Fingerprint {
		t.Fatalf("reference-built epoch: recovered %v, fingerprint match %v", err, err == nil && r.Fingerprint == ref.Fingerprint)
	}
}
