package rig

import (
	"fmt"
	"math"
	"slices"

	"repligc/internal/core"
	"repligc/internal/simtime"
)

// Row is Stats' one JSON form: every fact Text prints, plus the counters only
// a machine reads (all of GCStats among them). Each report that describes
// runs — the perf legs, the serving legs — holds one Row per run and checks
// it with Check. Times are simulated milliseconds.
type Row struct {
	Collector      string  `json:"collector"`
	ElapsedMs      float64 `json:"elapsed_ms"`
	AllocatedBytes int64   `json:"allocated_bytes"`
	core.GCStats
	BytesReplicated int64   `json:"bytes_replicated"` // minor + major
	ReplicationMBps float64 `json:"replication_mb_s"` // bytes replicated per simulated second

	Pauses       int     `json:"pauses"`
	PauseTotalMs float64 `json:"pause_total_ms"`
	PauseMinMs   float64 `json:"pause_min_ms"`
	PauseP50Ms   float64 `json:"pause_p50_ms"`
	PauseP90Ms   float64 `json:"pause_p90_ms"`
	PauseP95Ms   float64 `json:"pause_p95_ms"`
	PauseP99Ms   float64 `json:"pause_p99_ms"`
	PauseMaxMs   float64 `json:"pause_max_ms"`
	// Unbudgeted counts the pauses outside the pause bound: forced, or a
	// completion attempt let through over budget.
	Unbudgeted  int                `json:"unbudgeted_pauses"`
	Utilization float64            `json:"utilization"`
	MMU         []simtime.MMUPoint `json:"mmu"` // over Stats.MMUWindows
	Phases      []PhaseRow         `json:"phase_ms"`
	// What the pauses copied and the log entries they consumed (the
	// numerators of Text's throughput line), and the most one left behind.
	PauseCopiedBytes int64 `json:"pause_copied_bytes"`
	PauseLogEntries  int64 `json:"pause_log_entries"`
	LogBacklog       int64 `json:"log_backlog"`

	LogAppended  int64 `json:"log_appended"`  // barrier-side appends
	NurserySkips int64 `json:"nursery_skips"` // barrier fast-path suppressions
	DirtySkips   int64 `json:"dirty_skips"`   // barrier dirty-bit suppressions

	// What a checkpoint writer persisted (nil without one), and the simulated
	// time its copying was charged.
	Checkpoint   *CheckpointStats `json:"checkpoint,omitempty"`
	CheckpointMs float64          `json:"checkpoint_ms"`
}

// PhaseRow attributes pause time to one collection phase.
type PhaseRow struct {
	Phase string  `json:"phase"`
	Ms    float64 `json:"ms"`
	Count int     `json:"count"`
}

// Row is the report's JSON form.
func (s Stats) Row() Row {
	d := s.Pauses
	q := simtime.Percentiles(d.Durations(), 0, 50, 90, 95, 99, 100)
	r := Row{
		Collector:        s.Collector,
		ElapsedMs:        s.Elapsed.Milliseconds(),
		AllocatedBytes:   s.BytesAllocated,
		GCStats:          s.GC,
		BytesReplicated:  s.GC.TotalBytesCopied(),
		Pauses:           len(d.Pauses),
		PauseTotalMs:     d.TotalPause().Milliseconds(),
		PauseMinMs:       q[0].Milliseconds(),
		PauseP50Ms:       q[1].Milliseconds(),
		PauseP90Ms:       q[2].Milliseconds(),
		PauseP95Ms:       q[3].Milliseconds(),
		PauseP99Ms:       q[4].Milliseconds(),
		PauseMaxMs:       q[5].Milliseconds(),
		Utilization:      d.Utilization(),
		MMU:              d.MMUCurve(s.MMUWindows),
		PauseCopiedBytes: d.Copied,
		PauseLogEntries:  d.LogEntries,
		LogBacklog:       d.LogBacklog,
		LogAppended:      s.LogWrites,
		NurserySkips:     s.BarrierFastSkips,
		DirtySkips:       s.BarrierDirtySkips,
		Checkpoint:       s.Checkpoint,
		CheckpointMs:     s.Breakdown[simtime.AcctCheckpoint].Milliseconds(),
	}
	if secs := s.Elapsed.Seconds(); secs > 0 {
		r.ReplicationMBps = float64(r.BytesReplicated) / (1 << 20) / secs
	}
	for _, p := range d.Pauses {
		if p.Unbudgeted() {
			r.Unbudgeted++
		}
	}
	for p := simtime.Phase(0); p < simtime.NumPhases; p++ {
		if d.PhaseSpans[p] > 0 {
			r.Phases = append(r.Phases, PhaseRow{Phase: p.String(), Ms: d.PhaseTime[p].Milliseconds(), Count: d.PhaseSpans[p]})
		}
	}
	return r
}

// Check rejects a row no run can have produced: the one sanity check every
// report validator applies to each run it holds. Shape only, never a
// threshold on the measurements.
func (r *Row) Check() error {
	q := []float64{r.PauseMinMs, r.PauseP50Ms, r.PauseP90Ms, r.PauseP95Ms, r.PauseP99Ms, r.PauseMaxMs}
	if err := simtime.CheckNonNegative([]simtime.Measure{
		{"elapsed_ms", r.ElapsedMs}, {"replication_mb_s", r.ReplicationMBps}, {"pause_total_ms", r.PauseTotalMs},
		{"pause_min_ms", q[0]}, {"pause_p50_ms", q[1]}, {"pause_p90_ms", q[2]},
		{"pause_p95_ms", q[3]}, {"pause_p99_ms", q[4]}, {"pause_max_ms", q[5]},
		{"utilization", r.Utilization}, {"checkpoint_ms", r.CheckpointMs},
	}); err != nil {
		return err
	}
	switch {
	case r.Collector == "":
		return fmt.Errorf("collector is empty")
	case r.ElapsedMs == 0:
		return fmt.Errorf("run did no work")
	case !slices.IsSorted(q):
		return fmt.Errorf("pause percentiles are not monotone")
	case r.Pauses < 0 || r.Unbudgeted < 0 || r.Unbudgeted > r.Pauses:
		return fmt.Errorf("%d unbudgeted of %d pauses", r.Unbudgeted, r.Pauses)
	case r.Utilization > 1:
		return fmt.Errorf("utilization %v is above 1", r.Utilization)
	case r.LogReapplied > r.LogScanned:
		return fmt.Errorf("re-applied %d entries but scanned only %d", r.LogReapplied, r.LogScanned)
	case (len(r.Phases) == 0) != (r.Pauses == 0):
		return fmt.Errorf("%d pauses attributed to %d phases", r.Pauses, len(r.Phases))
	}
	if err := simtime.CheckMMUCurve(r.MMU); err != nil {
		return err
	}
	sum, ckpt := 0.0, 0.0 // a phase is the accounts its work was charged to (simtime.Account.Phase)
	for _, ph := range r.Phases {
		if ph.Phase == "" || ph.Ms < 0 || ph.Count <= 0 {
			return fmt.Errorf("phase %q: %v ms over %d spans is not plausible", ph.Phase, ph.Ms, ph.Count)
		}
		sum += ph.Ms
		if ph.Phase == simtime.PhaseCheckpoint.String() {
			ckpt = ph.Ms
		}
	}
	if math.Abs(sum-r.PauseTotalMs) > 1e-9*r.PauseTotalMs || ckpt != r.CheckpointMs {
		return fmt.Errorf("the phases sum to %v ms and the checkpoint phase is %v ms; the pauses took %v ms and the checkpoint account %v ms",
			sum, ckpt, r.PauseTotalMs, r.CheckpointMs)
	}
	if c := r.Checkpoint; c != nil && (c.Committed < 1 || c.SnapshotBytes <= 0 || c.WALBytes <= 0 || c.WordsCopied <= 0) {
		return fmt.Errorf("checkpoint writer persisted nothing plausible (%d epochs, snap %d, wal %d, words %d)",
			c.Committed, c.SnapshotBytes, c.WALBytes, c.WordsCopied)
	}
	return nil
}
