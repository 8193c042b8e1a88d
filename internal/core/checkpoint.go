package core

// The collector side of crash-consistent checkpointing (internal/checkpoint
// owns the snapshot format and file I/O; this file owns the pause-boundary
// contract). The replicating collector drives the snapshot writer with one
// call per pause, inside the pause window, so every byte of checkpoint work
// is charged to the stopped mutator and shows up in pause times and MMU
// curves exactly like collection work does.

import "repligc/internal/simtime"

// CheckpointPoint describes the collector's state at the pause boundary
// handed to a Checkpointer. The writer uses it to decide whether an epoch
// may begin or commit (both require quiescence) and whether an open epoch
// must abort (a major flip swaps the old semispaces, invalidating every
// segment copied so far).
type CheckpointPoint struct {
	// Quiescent reports that no minor or major collection is in flight:
	// the mutation log's retained suffix is exactly the next cycle's
	// remembered set, and no object carries a forwarding pointer.
	Quiescent bool
	// MajorActive reports an in-flight major collection. Promotions are
	// landing in old-to, which the snapshot does not cover, so an open
	// epoch is already doomed to abort at the coming flip.
	MajorActive bool
	// MajorCollections is the completed-major counter; a change since the
	// epoch began means the semispaces swapped underneath the snapshot.
	MajorCollections int
	// MinorLogCursor is the collector's pending log position: entries at
	// and above it are the remembered set a restored run must re-consume.
	MinorLogCursor int64
	// PromotedSinceMajor and PromoHighWater are the scheduling state a
	// restored collector needs to keep the major threshold O and the
	// degradation ladder's headroom reservation honest across a crash.
	PromotedSinceMajor int64
	PromoHighWater     int64
	// BudgetWords is how many words the pause may still begin copying before
	// its deadline; maxInt in a pause with no budget. The snapshot increment
	// draws on the pause's one budget.
	BudgetWords int
}

// Checkpointer receives one callback per collection pause, inside the pause,
// and reports whether it committed an epoch: a commit is not metered, so the
// pause that runs one has no budget.
// internal/checkpoint.Writer is the implementation; the interface lives here
// so core does not import the I/O layer.
type Checkpointer interface {
	PauseCheckpoint(m *Mutator, p CheckpointPoint) (committed bool)
}

// SetCheckpointer attaches w (nil detaches). The mutator must log all
// mutations: the checkpoint write-ahead log is the mutation log, and a
// pointers-only log would lose non-pointer stores across recovery.
func (c *Replicating) SetCheckpointer(w Checkpointer) { c.ckpt = w }

// CheckpointNow assembles the pause-boundary state for the writer: the hook's,
// and checkpoint.Writer.ForceCommit's, which commits in a pause of its own
// after FinishCycles has left the collector quiescent.
func (c *Replicating) CheckpointNow() CheckpointPoint {
	return CheckpointPoint{
		Quiescent:          !c.minor.active && !c.major.active,
		MajorActive:        c.major.active,
		MajorCollections:   c.stats.MajorCollections,
		MinorLogCursor:     c.minor.logCursor,
		PromotedSinceMajor: c.promotedSinceMajor,
		PromoHighWater:     c.promoHighWater,
	}
}

// CheckpointPause runs commit in a pause of its own, outside any collection,
// and records it like every other pause: PauseOther, EntryCheckpoint, all of
// it checkpoint phase (commit charges the clock itself).
func (c *Replicating) CheckpointPause(m *Mutator, commit func()) {
	c.pauses.Begin(m, simtime.EntryCheckpoint)
	c.pauses.checkpoint(m, commit)
	c.pauses.End(m, simtime.PauseOther)
}

// RestoreScheduling reinstates the collector scheduling state a checkpoint
// recorded at commit time: the pending log cursor (the remembered set starts
// there), the promotion volume counted toward the major threshold O, and the
// promotion high-water mark feeding the headroom reservation. It must be
// called on a freshly constructed collector, before the mutator runs.
func (c *Replicating) RestoreScheduling(minorLogCursor, promotedSinceMajor, promoHighWater int64) {
	c.minor.logCursor = minorLogCursor
	c.promotedSinceMajor = promotedSinceMajor
	c.promoHighWater = promoHighWater
}
