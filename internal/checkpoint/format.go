// Package checkpoint implements crash-consistent incremental checkpointing
// for the replication collector. It applies the paper's own replication idea
// to persistence: a snapshot writer copies the stable prefix of the old
// from-space in bounded increments at pause boundaries — charged to the
// simulated clock like any other pause work, so checkpoint intrusion shows
// up honestly in pause times and MMU curves — while the mutation log doubles
// as a write-ahead log that patches every slot mutated after its snapshot
// segment was written. Recovery loads the newest complete epoch, applies its
// patches, and yields a heap whose fingerprint is bit-identical to the
// state the writer fingerprinted at commit time; any damage surfaces as a
// typed *artifact.CorruptError, never as a silently wrong heap.
package checkpoint

import (
	"fmt"
	"path/filepath"
)

// An epoch is one file, epoch-<N>.ckpt: an internal/artifact frame sequence
// (DESIGN.md, "Artifact kit") holding the image section — the header, then
// the segments — and then the commit section, recSpaces through recCommit.
// This file owns only its magic and record types.
const (
	epochMagic = "RGCEPOCH"
	version    = 2
)

// Record types, in the order an epoch file holds them.
const (
	recHeader  uint8 = iota + 1 // version, epoch, heap config, from-space name
	recSegment                  // space id, start word, word count, payload words
	recSpaces                   // Hi and Next for nursery and both old semispaces; opens the commit section
	recPatch                    // (arena index, value) pairs: commit-time values of logged slots
	recLog                      // retained mutation-log entries
	recRoots                    // root slot values in visit order
	recSched                    // mutator and collector scheduling state
	recCommit                   // state fingerprint (completeness marker)
)

// Space ids used by segment records.
const (
	spaceOldFrom uint8 = iota
	spaceNursery
)

// epochPath names epoch's artifact in dir.
func epochPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("epoch-%08d.ckpt", epoch))
}
