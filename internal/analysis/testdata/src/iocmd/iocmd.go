// Package fixiocmd exercises the io rule inside cmd/: file I/O is legal in
// a function whose doc comment allows io naming the artifact, and flagged
// without one.
package fixiocmd

import "os"

// writeReport persists the report artifact.
//
//gclint:allow io -- owns the report JSON written to the path the user named
func writeReport(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func sneaky(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// forgotten carries the annotation but performs no I/O.
//
//gclint:allow io -- held over from an earlier revision
func forgotten() int { return 42 }

//gclint:allow io
func noReason(path string) error {
	return os.Remove(path)
}
