package checkpoint_test

// The cross-codec pin. The checkpoint files and the serving-trace artifact
// claim one frame grammar,
//
//	magic[8] | frame* ,  frame := seq u32 | type u8 | len u32 | payload | crc u32
//
// (little-endian, crc = IEEE CRC-32 of the frame before it, seq the frame's
// ordinal). This test holds both packages to it from outside, through their
// public entry points only, against a third reference codec written here from
// the grammar: what either writer emits parses under the reference and
// rebuilds byte-identically, and every frame-level damage — flipped byte,
// truncation, duplicated record, reordered record — is rejected by both
// readers with their typed corruption error, as is each format's frames
// transplanted under the other's magic. It was written against the two
// hand-copied codecs and must pass untouched over whatever replaces them,
// which is why the typed error is recognised by its type's name.

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
// exact frame coordinates. Each returns a fresh slice.
func damages(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	spans := frameSpans(t, data)
	if len(spans) < 3 {
		t.Fatalf("need at least 3 frames, have %d", len(spans))
	}
	mid := spans[len(spans)/2]
	next := spans[len(spans)/2+1]
	clone := func() []byte { return append([]byte(nil), data...) }
	flip := func(at int) []byte { b := clone(); b[at] ^= 0x40; return b }
	magic, recs, _ := refParse(data)
	k := len(recs) / 2
	swapped := append([]refRecord(nil), recs...)
	swapped[k], swapped[k+1] = swapped[k+1], swapped[k]

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
		"reordered":             append(append(append(clone()[:mid[0]], data[next[0]:next[1]]...), data[mid[0]:mid[1]]...), data[next[1]:]...),
		"dropped record":        append(clone()[:mid[0]], data[mid[1]:]...),
		// Well-framed (ordinals and checksums recomputed) but out of order:
		// must still be refused, on content.
		"reordered and renumbered": refBuild(magic, swapped),
	}
	return out
}

// isCorrupt recognises the typed corruption error of either package, under
// whatever package owns the type.
func isCorrupt(err error) bool {
	return err != nil && strings.HasSuffix(fmt.Sprintf("%T", err), "CorruptError")
}

// checkpointPair runs a small seeded workload with a checkpoint writer and
// returns the newest epoch's two files (name → bytes).
func checkpointPair(t *testing.T) (snapName, walName string, files map[string][]byte) {
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
	newest := epochs[len(epochs)-1]
	snapName = fmt.Sprintf("snap-%08d.ckpt", newest)
	walName = fmt.Sprintf("wal-%08d.ckpt", newest)
	files = map[string][]byte{}
	for _, name := range []string{snapName, walName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return snapName, walName, files
}

// recoverFiles writes one epoch's pair into a fresh directory — no older
// epoch to fall back on — and recovers it.
func recoverFiles(t *testing.T, files map[string][]byte) (*checkpoint.Restored, error) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
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
	snapName, walName, pair := checkpointPair(t)
	with := func(name string, data []byte) map[string][]byte {
		out := map[string][]byte{snapName: pair[snapName], walName: pair[walName]}
		out[name] = data
		return out
	}

	// One grammar: all three writers' output parses under the reference and
	// the reference writer reproduces it byte for byte.
	magics := map[string]string{}
	for name, data := range map[string][]byte{"trace": trace, snapName: pair[snapName], walName: pair[walName]} {
		magic, recs, err := refParse(data)
		if err != nil {
			t.Fatalf("%s: does not parse under the reference grammar: %v", name, err)
		}
		if !bytes.Equal(refBuild(magic, recs), data) {
			t.Fatalf("%s: reference writer does not reproduce the file", name)
		}
		magics[name] = magic
	}
	if len(frameSpans(t, trace)) < 5 {
		t.Fatalf("trace artifact has only %d frames; the spec is too small to batch", len(frameSpans(t, trace)))
	}

	// The undamaged inputs are accepted.
	if _, err := workload.DecodeTrace(trace); err != nil {
		t.Fatalf("DecodeTrace(pristine): %v", err)
	}
	ref, err := recoverFiles(t, pair)
	if err != nil {
		t.Fatalf("Recover(pristine): %v", err)
	}

	// Same rejection, damage by damage, from both readers.
	for name, bad := range damages(t, trace) {
		if _, err := workload.DecodeTrace(bad); !isCorrupt(err) {
			t.Errorf("trace, %s: DecodeTrace returned %T %v, want the typed corruption error", name, err, err)
		}
	}
	for _, file := range []string{snapName, walName} {
		for name, bad := range damages(t, pair[file]) {
			r, err := recoverFiles(t, with(file, bad))
			if err == nil && name == "reordered and renumbered" && r.Fingerprint == ref.Fingerprint {
				continue // snapshot segments carry their own offsets: exact recovery is the other contractual ending
			}
			if !isCorrupt(err) {
				t.Errorf("%s, %s: Recover returned (%v, %T %v), want the typed corruption error", file, name, r != nil, err, err)
			}
		}
	}

	// Transplants: each format's frames under the other's magic are well
	// framed for the receiving reader, which must refuse them on content,
	// typed, without panicking.
	_, traceRecs, _ := refParse(trace)
	for _, file := range []string{snapName, walName} {
		_, recs, _ := refParse(pair[file])
		if _, err := workload.DecodeTrace(refBuild(magics["trace"], recs)); !isCorrupt(err) {
			t.Errorf("%s frames under the trace magic: DecodeTrace returned %T %v", file, err, err)
		}
		if _, err := recoverFiles(t, with(file, refBuild(magics[file], traceRecs))); !isCorrupt(err) {
			t.Errorf("trace frames under the %s magic: Recover returned %T %v", file, err, err)
		}
	}

	// And a checkpoint pair rebuilt by the reference writer recovers to the
	// same fingerprint as the original.
	rebuilt := map[string][]byte{}
	for name, data := range pair {
		magic, recs, _ := refParse(data)
		rebuilt[name] = refBuild(magic, recs)
	}
	r, err := recoverFiles(t, rebuilt)
	if err != nil || r.Fingerprint != ref.Fingerprint {
		t.Fatalf("reference-built pair: recovered %v, fingerprint match %v", err, err == nil && r.Fingerprint == ref.Fingerprint)
	}
}
