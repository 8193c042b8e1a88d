package core

import (
	"repligc/internal/simtime"
)

// Collector is the contract between the mutator and a garbage collector.
type Collector interface {
	// Name identifies the configuration ("rt", "minor-inc", "sc", ...).
	Name() string

	// CollectForAlloc is invoked when the nursery cannot satisfy an
	// allocation of needWords payload+header words. The collector must
	// make the allocation possible (collect, flip, or expand the nursery)
	// or return a typed *OOMError once its degradation ladder is spent;
	// it must never panic on resource exhaustion, and the heap must stay
	// auditable (AuditHeap) after an error.
	CollectForAlloc(m *Mutator, needWords int) error

	// AfterAlloc is never called; it is declared only because the frozen
	// benchmarks/host collector wrapper forwards it. Collectors steer their
	// collection points through nursery limits instead.
	AfterAlloc(m *Mutator)

	// FinishCycles drives any in-progress incremental collections to
	// completion. Benchmarks call it once at the end of a run so that
	// total copying work is comparable across configurations. Like
	// CollectForAlloc it surfaces exhaustion as a typed *OOMError.
	FinishCycles(m *Mutator) error

	// Stats exposes the collector's counters.
	Stats() *GCStats

	// Pauses exposes the pause recorder.
	Pauses() *simtime.Recorder
}

// GCStats counts collector work in the units the paper reports. Its JSON form
// is part of a run's report row (rig.Row).
type GCStats struct {
	MinorCollections int   `json:"minor_collections"`       // completed minor collections (flips)
	MajorCollections int   `json:"major_collections"`       // completed major collections (flips)
	PauseCount       int   `json:"-"`                       // number of mutator pauses (the row counts its record's)
	BytesCopiedMinor int64 `json:"copied_minor_bytes"`      // bytes replicated nursery -> old
	BytesCopiedMajor int64 `json:"copied_major_bytes"`      // bytes replicated old-from -> old-to
	LogScanned       int64 `json:"log_scanned"`             // log entries examined
	LogReapplied     int64 `json:"log_reapplied"`           // logged mutations reapplied to replicas
	FlipEntryUpdates int64 `json:"flip_entry_updates"`      // logged locations re-pointed during flips
	RootSlotUpdates  int64 `json:"root_slot_updates"`       // root slots scanned or updated
	ForcedCompletion int   `json:"forced_completions"`      // incremental collections forced non-incremental
	NurseryExpansion int64 `json:"nursery_expansion_bytes"` // bytes of nursery expansion granted (param A)

	// SplitCopies counts the replicas filled over more than one pause, and
	// LargestCopyBytes is the largest single uninterrupted copy: what the copy
	// term of the pause bound (Config.PauseCopyBound) is a formula over.
	SplitCopies      int64 `json:"split_copies"`
	LargestCopyBytes int64 `json:"largest_copy_bytes"`

	// The admission gate's counters (Replicating.deferAttempt): completion
	// attempts — a minor collection's, or a major flip — put off to a later
	// pause because they did not fit theirs, attempts that ran although they
	// did not fit (cost alone above the budget, or the deferral cap reached),
	// and the longest worklist a major flip re-pointed.
	Deferrals           int `json:"deferrals"`
	Overruns            int `json:"overruns"`
	LargestFlipWorklist int `json:"largest_flip_worklist"`

	// EmergencyCollections counts degradation-ladder activations: pauses
	// promoted to full stop-the-world completion because the promotion
	// target's headroom fell below the reservation (nursery contents plus
	// the promotion high-water mark), or because a failed old-space
	// allocation requested an emergency major.
	EmergencyCollections int `json:"emergency_collections"`

	// FlipCopied records the cumulative TotalBytesCopied at each minor
	// flip. Comparing two runs with synchronized flips at their last
	// common flip index yields the paper's latent-garbage measurement
	// (table 3).
	FlipCopied []int64 `json:"-"`
}

// EmergencyCollector is implemented by collectors that can run a
// last-resort stop-the-world collection — the top rung of the degradation
// ladder — when a direct old-generation allocation fails. The mutator
// invokes it once and retries the allocation; only if the retry also
// fails does the typed error surface.
type EmergencyCollector interface {
	CollectEmergency(m *Mutator) error
}

// TotalBytesCopied is the collector's total copying volume; the difference
// between an incremental run and a synchronized stop-and-copy run is the
// paper's latent garbage (table 3).
func (s *GCStats) TotalBytesCopied() int64 { return s.BytesCopiedMinor + s.BytesCopiedMajor }
