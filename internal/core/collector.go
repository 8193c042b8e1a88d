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

	// AfterAlloc is invoked after every successful nursery allocation so
	// that replay-driven collectors can trigger collections at recorded
	// allocation marks rather than at nursery exhaustion.
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

// GCStats counts collector work in the units the paper reports.
type GCStats struct {
	MinorCollections int   // completed minor collections (flips)
	MajorCollections int   // completed major collections (flips)
	PauseCount       int   // number of mutator pauses
	BytesCopiedMinor int64 // bytes replicated nursery -> old
	BytesCopiedMajor int64 // bytes replicated old-from -> old-to
	LogScanned       int64 // log entries examined
	LogReapplied     int64 // logged mutations reapplied to replicas
	FlipEntryUpdates int64 // logged locations re-pointed during flips
	RootSlotUpdates  int64 // root slots scanned or updated
	ForcedCompletion int   // incremental collections forced non-incremental
	NurseryExpansion int64 // bytes of nursery expansion granted (param A)

	// SplitCopies counts the replicas filled over more than one pause, and
	// LargestCopyBytes is the largest single uninterrupted copy: what the copy
	// term of the pause bound (Config.PauseCopyBound) is a formula over.
	SplitCopies      int64
	LargestCopyBytes int64

	// The admission gate's counters (Replicating.deferAttempt): completion
	// attempts — a minor collection's, or a major flip — put off to a later
	// pause because they did not fit theirs, attempts that ran although they
	// did not fit (cost alone above the budget, or the deferral cap reached),
	// and the longest worklist a major flip re-pointed.
	Deferrals           int
	Overruns            int
	LargestFlipWorklist int

	// EmergencyCollections counts degradation-ladder activations: pauses
	// promoted to full stop-the-world completion because the promotion
	// target's headroom fell below the reservation (nursery contents plus
	// the promotion high-water mark), or because a failed old-space
	// allocation requested an emergency major.
	EmergencyCollections int

	// FlipCopied records the cumulative TotalBytesCopied at each minor
	// flip. Comparing two runs with synchronized flips at their last
	// common flip index yields the paper's latent-garbage measurement
	// (table 3).
	FlipCopied []int64
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
