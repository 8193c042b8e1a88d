// Package checkpoint implements crash-consistent incremental checkpointing
// for the replication collector. It applies the paper's own replication idea
// to persistence: a snapshot writer copies the stable prefix of the old
// from-space in bounded increments at pause boundaries — charged to the
// simulated clock like any other pause work, so checkpoint intrusion shows
// up honestly in pause times and MMU curves — while the mutation log doubles
// as a write-ahead log that patches every slot mutated after its snapshot
// segment was written. Recovery loads the newest complete snapshot, replays
// the WAL tail, and yields a heap whose fingerprint is bit-identical to the
// state the writer fingerprinted at commit time; any damage surfaces as a
// typed *artifact.CorruptError, never as a silently wrong heap.
package checkpoint

// Both artifact files are internal/artifact frame sequences (DESIGN.md,
// "Artifact kit"); this file owns only their magics and record types.
const (
	snapMagic = "RGCSNAP1"    // snapshot file magic
	walMagic  = "RGCWAL\x001" // WAL file magic
	version   = 1
)

// Record types.
const (
	recSnapHeader uint8 = iota + 1 // version, epoch, walBase, heap config, from-space name
	recSegment                     // space id, start word, word count, payload words
	recSnapFooter                  // segment count (snapshot completeness marker)
	recWALHeader                   // epoch
	recSpaces                      // Hi and Next for nursery and both old semispaces
	recPatch                       // (arena index, value) pairs: commit-time values of logged slots
	recLog                         // retained mutation-log entries
	recRoots                       // root slot values in visit order
	recSched                       // mutator and collector scheduling state
	recCommit                      // record count, state fingerprint (WAL completeness marker)
)

// Space ids used by segment records.
const (
	spaceOldFrom uint8 = iota
	spaceNursery
)
