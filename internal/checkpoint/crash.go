package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repligc/internal/artifact"
	"repligc/internal/faultinject"
)

// ApplyCrash damages the plan's target section of the newest epoch in dir
// or, with all set, of every retained epoch — the no-fallback scenario, where
// recovery has nothing intact left and must fail with a typed
// *artifact.CorruptError rather than hand back a damaged heap. It is the
// bridge between faultinject's pure-data crash plans and the filesystem:
// truncation simulates a kill at byte k of a write, a torn word simulates a
// damaged sector, a duplicated record simulates a replayed buffer flush.
func ApplyCrash(dir string, plan faultinject.CrashPlan, all bool) error {
	epochs, err := Epochs(dir)
	if err != nil {
		return err
	}
	if len(epochs) == 0 {
		return fmt.Errorf("checkpoint: no epochs in %s to crash", dir)
	}
	if !all {
		epochs = epochs[len(epochs)-1:]
	}
	for _, epoch := range epochs {
		if err := applyCrashEpoch(epochPath(dir, epoch), plan); err != nil {
			return err
		}
	}
	return nil
}

// applyCrashEpoch damages one epoch file at the plan's fraction of its
// targeted section: CrashSnapshot the image section (the magic, header and
// segments), CrashWAL the commit section.
//
//gclint:allow io -- rewrites one checkpoint artifact in place to simulate crash damage
func applyCrashEpoch(path string, plan faultinject.CrashPlan) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lo, hi := 0, commitStart(data)
	if plan.Target == faultinject.CrashWAL {
		lo, hi = hi, len(data)
	}
	if lo >= hi {
		return fmt.Errorf("checkpoint: %s has an empty %v section", path, plan.Target)
	}
	at := lo + int(plan.Fraction*float64(hi-lo))
	if at >= hi {
		at = hi - 1
	}

	switch plan.Kind {
	case faultinject.CrashTruncate:
		data = data[:at]
	case faultinject.CrashTornWord:
		word := at &^ 7
		if word+8 > len(data) {
			word = (len(data) - 8) &^ 7
		}
		if word < 0 {
			word = 0
		}
		end := word + 8
		if end > len(data) {
			end = len(data)
		}
		var buf [8]byte
		copy(buf[:], data[word:end])
		v := binary.LittleEndian.Uint64(buf[:]) ^ plan.Mask
		binary.LittleEndian.PutUint64(buf[:], v)
		copy(data[word:end], buf[:end-word])
	case faultinject.CrashDuplicateRecord:
		// Re-append the framed record that spans the damage site (falling
		// back to a fixed-width byte window when no frame parses there),
		// yielding a file whose checksums are all intact but whose record
		// ordinals repeat.
		lo, hi, ok := artifact.SpanAt(data, len(epochMagic), at)
		if !ok {
			lo, hi = max(at-32, 0), min(at+32, len(data))
		}
		data = append(data, data[lo:hi]...)
	default:
		return fmt.Errorf("checkpoint: unknown crash kind %v", plan.Kind)
	}
	return os.WriteFile(path, data, 0o666)
}

// commitStart is the offset of an intact epoch file's commit section: its
// first record of type recSpaces or later, or the end of the file.
func commitStart(data []byte) int {
	br := bytes.NewReader(data)
	rr, err := artifact.NewReader(br, int64(len(data)), "", epochMagic)
	for err == nil {
		off := len(data) - br.Len()
		var typ uint8
		if typ, _, err = rr.Next(); err == nil && typ >= recSpaces {
			return off
		}
	}
	return len(data)
}

// CloneDir copies every checkpoint artifact from src into dst (created if
// needed), so a crash can be applied to a copy while the pristine reference
// artifacts survive for comparison.
//
//gclint:allow io -- duplicates the artifact directory for destructive crash testing
func CloneDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o666); err != nil {
			return err
		}
	}
	return nil
}
