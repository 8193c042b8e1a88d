package checkpoint

// Pins taken before the artifact kit replaced this package's private record
// codec and fingerprint mixer: the bytes of every snapshot and WAL file one
// seeded checkpointed run leaves behind, and the state fingerprint its last
// epoch committed. They must pass untouched across a refactor; a change to the
// collector's schedule (PR 23: the log and the root passes draw on the pause's
// budget, so pause boundaries fall elsewhere) re-takes them.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const (
	pinArtifactSHA256   = "35b7279f133ae86a1cade1d8247cf4931626d61ce196e238f3f1b0cab04a94cd"
	pinStateFingerprint = "187c0838bd7d9b3b"
	pinCommitted        = 3
	pinSnapshotBytes    = 103537
	pinWALBytes         = 15851
)

func TestCheckpointArtifactPins(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := referenceRun(dir, 1, 3000, 16<<10)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	st := w.Stats()
	if st.Committed != pinCommitted || st.SnapshotBytes != pinSnapshotBytes || st.WALBytes != pinWALBytes {
		t.Errorf("committed %d epochs, %d snapshot bytes, %d WAL bytes; pinned %d, %d, %d",
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
