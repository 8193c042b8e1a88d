// Package fixio exercises the io rule outside the permitted packages: a
// simulation package may never touch the filesystem, and no annotation can
// license it.
package fixio

import "os"

func spill() error {
	return os.WriteFile("state.bin", nil, 0o644)
}

// persist allows io, but no allow licenses file I/O in this package: the
// write stays a finding, and the allow suppresses nothing.
//
//gclint:allow io -- wants to persist the routing table between runs
func persist() error {
	return os.WriteFile("table.bin", nil, 0o644)
}
