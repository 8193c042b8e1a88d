package checkpoint

// Pins of one seeded checkpointed run: the bytes of every epoch file it
// leaves behind, the state fingerprint its last epoch committed and how many
// epochs committed. They must pass untouched across a refactor; a change to
// the collector's schedule (the log and the root passes drawing on the
// pause's budget moved the pause boundaries) or to the matrix's heap re-takes
// them, and so does a change to the file format, which moves only the byte and
// digest pins.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const (
	pinArtifactSHA256   = "6cb31d5f2e6865b2181f8baa75f0dd48e942c89ac46a0fcf0763faa948e0d3fa"
	pinStateFingerprint = "423986767ae01007"
	pinCommitted        = 3
	pinSnapshotBytes    = 78954
	pinWALBytes         = 13474
)

func TestCheckpointArtifactPins(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := referenceRun(dir, 1, 3000, 16<<10)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	st := w.Stats()
	if st.Committed != pinCommitted || st.SnapshotBytes != pinSnapshotBytes || st.WALBytes != pinWALBytes {
		t.Errorf("committed %d epochs, %d image bytes, %d commit-section bytes; pinned %d, %d, %d",
			st.Committed, st.SnapshotBytes, st.WALBytes, pinCommitted, pinSnapshotBytes, pinWALBytes)
	}
	if got := fmt.Sprintf("%016x", st.Epochs[len(st.Epochs)-1].Fingerprint); got != pinStateFingerprint {
		t.Errorf("last epoch's state fingerprint %s, pinned %s", got, pinStateFingerprint)
	}

	// Every retained file, in name order: name, then bytes.
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("listing %s: %v (%d files)", dir, err, len(names))
	}
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(data))
		h.Write(data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinArtifactSHA256 {
		t.Errorf("artifact files %v digest to %s, pinned %s", names, got, pinArtifactSHA256)
	}
}
