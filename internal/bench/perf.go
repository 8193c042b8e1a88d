package bench

// The perf trajectory (the `rtgc-bench perf` report): a machine-readable
// before/after comparison of the naive append-every-store write barrier against the
// coalescing barrier (dirty stamps + nursery fast path), per workload, under
// the full real-time configuration. "Before" is the same collector with
// coalescing disabled (rig.Config.NaiveBarrier), so both legs run identical
// workload code over the identical cost model and differ only in how the
// mutation log represents the exception set.
//
// Every number is simulated time or a count (deterministic, cost-model
// units), so the report is a pure function of the tree. Host cost is measured
// in one place only: the ledger of benchmarks/host.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/workload"
)

// PerfSchema identifies the report layout; bump on incompatible change. Every
// member is simulated, so deterministic and gated. The constant aliases
// workload.ReportSchema so the two producers of the schema cannot drift
// apart.
const PerfSchema = workload.ReportSchema

// PerfReport is the document `rtgc-bench perf` emits.
type PerfReport struct {
	Schema    string `json:"schema"`
	Collector string `json:"collector"` // configuration of both legs ("rt")
	Params    string `json:"params"`    // O/N/L of both legs
	Scale     string `json:"scale"`     // "default" or "quick"

	Workloads []PerfWorkload `json:"workloads"`

	// Serving is the schema-5 section: the standard serving mix
	// (DefaultServeSpec) under the naive-barrier and coalesced legs, with
	// per-cohort latency percentiles, SLO breakdowns, queue stats,
	// pause-intrusion attribution and request-granularity MMU.
	Serving *workload.Section `json:"serving"`

	// Multi is the schema-6 section: the same seeded group workload run
	// with N ∈ {1, 2, 4, 8} mutator contexts sharing one heap under the
	// full real-time configuration. The N = 1 leg doubles as the identity
	// anchor (overlap ratio exactly 1, wall equals the serial clock); the
	// N ≥ 2 legs demonstrate collection genuinely overlapping mutators.
	Multi []MultiLeg `json:"multi_mutator"`
}

// MultiLeg is one N-mutator scaling cell of the multi-mutator section. All
// times are simulated: WorkMs is the shared serial clock (total work done by
// every actor), WallMs the projected makespan in which only each pause's
// synchronous portion stops all mutators, and OverlapRatio their quotient —
// greater than 1 means collector work genuinely ran while mutators ran.
type MultiLeg struct {
	Mutators       int       `json:"mutators"`
	WorkMs         float64   `json:"work_ms"`
	WallMs         float64   `json:"wall_ms"`
	OverlapRatio   float64   `json:"overlap_ratio"`
	Utilization    []float64 `json:"utilization"` // per-mutator, on the wall timeline
	Minor          int       `json:"minor_collections"`
	Major          int       `json:"major_collections"`
	GroupPauses    int       `json:"group_pauses"` // all-mutators-stopped intervals
	SyncPauseMaxMs float64   `json:"sync_pause_max_ms"`
	MMU20Ms        float64   `json:"mmu_20ms"` // over the all-stopped intervals, wall timeline
	// Unbudgeted counts the pauses outside the pause bound: forced, or a
	// completion attempt let through over budget. With none, no all-stopped
	// interval may exceed the bound (checkMulti).
	Unbudgeted int `json:"unbudgeted_pauses"`
	// Fingerprint anchors determinism: the combined reachable-graph hash of
	// every member plus the shared contended array, stable across reruns
	// for a given (N, seed).
	Fingerprint string `json:"fingerprint"`
}

// PerfWorkload compares the barrier legs on one workload.
type PerfWorkload struct {
	Name         string  `json:"name"`
	Baseline     PerfLeg `json:"baseline"`     // NaiveBarrier: true
	Coalesced    PerfLeg `json:"coalesced"`    // the coalescing barrier
	Checkpointed PerfLeg `json:"checkpointed"` // coalesced + incremental checkpoint writer

	// ReapplyReductionPct is the headline number: the percentage of the
	// baseline's re-applied log entries that coalescing eliminated.
	ReapplyReductionPct float64 `json:"reapply_reduction_pct"`
	// AppendReductionPct is the same for barrier-side log appends.
	AppendReductionPct float64 `json:"append_reduction_pct"`

	// Checkpoint describes what the checkpointed leg persisted and what the
	// crash consistency cost relative to the coalesced leg.
	Checkpoint PerfCheckpoint `json:"checkpoint"`
}

// PerfCheckpoint is the checkpointed leg's persistence section.
type PerfCheckpoint struct {
	Epochs        int     `json:"epochs"`         // committed epochs (≥ 1: the final forced commit)
	Aborted       int     `json:"aborted"`        // epochs invalidated by a major flip
	SnapshotBytes int64   `json:"snapshot_bytes"` // total snapshot artifact bytes
	WALBytes      int64   `json:"wal_bytes"`      // total WAL artifact bytes
	WordsCopied   int64   `json:"words_copied"`   // heap words copied into segments
	PatchWords    int64   `json:"patch_words"`    // WAL patch pairs (slots mutated mid-snapshot)
	CheckpointMs  float64 `json:"checkpoint_ms"`  // simulated time charged to AcctCheckpoint
	// OverheadPct is the headline intrusion number: the checkpointed leg's
	// simulated elapsed time over the coalesced leg's, as a percentage.
	OverheadPct float64 `json:"overhead_pct"`
}

// PerfLeg is one run's measurements.
type PerfLeg struct {
	ElapsedMs       float64 `json:"elapsed_ms"`       // simulated
	ReplicationMBps float64 `json:"replication_mb_s"` // bytes replicated / simulated second
	BytesReplicated int64   `json:"bytes_replicated"` // minor + major copying volume
	LogAppended     int64   `json:"log_appended"`     // barrier-side appends
	LogScanned      int64   `json:"log_scanned"`      // collector-side entries examined
	LogReapplied    int64   `json:"log_reapplied"`    // mutations re-applied to replicas
	NurserySkips    int64   `json:"nursery_skips"`    // fast-path suppressions (coalesced leg only)
	DirtySkips      int64   `json:"dirty_skips"`      // stamp-hit suppressions (coalesced leg only)
	Pauses          int     `json:"pauses"`
	PauseMinMs      float64 `json:"pause_min_ms"`
	PauseMedianMs   float64 `json:"pause_median_ms"`
	PauseP95Ms      float64 `json:"pause_p95_ms"`
	PauseMaxMs      float64 `json:"pause_max_ms"`
	// Unbudgeted counts the pauses outside the pause bound (unbudgeted); with
	// none, pause_max_ms may not exceed it on a leg with no checkpoint writer.
	Unbudgeted int `json:"unbudgeted_pauses"`

	// MMU is the minimum-mutator-utilization curve over the standard
	// window ladder; Phases attributes pause time to collection phases.
	// Both are digests of the leg's pause record.
	MMU    []simtime.MMUPoint `json:"mmu"`
	Phases []PhaseTime        `json:"phase_ms"`
}

// PhaseTime attributes pause time to one collection phase.
type PhaseTime struct {
	Phase string  `json:"phase"`
	Ms    float64 `json:"ms"`
	Count int     `json:"count"`
}

// perfLeg distils a Result, its pause record included.
func perfLeg(r *Result) PerfLeg {
	copied, d := r.GC.TotalBytesCopied(), r.Pauses
	q := simtime.Percentiles(d.Durations(), 0, 50, 95, 100)
	leg := PerfLeg{
		ElapsedMs:       r.Elapsed.Milliseconds(),
		BytesReplicated: copied,
		LogAppended:     r.LogWrites,
		LogScanned:      r.GC.LogScanned,
		LogReapplied:    r.GC.LogReapplied,
		NurserySkips:    r.BarrierFastSkips,
		DirtySkips:      r.BarrierDirtySkips,
		Pauses:          len(d.Pauses),
		PauseMinMs:      q[0].Milliseconds(),
		PauseMedianMs:   q[1].Milliseconds(),
		PauseP95Ms:      q[2].Milliseconds(),
		PauseMaxMs:      q[3].Milliseconds(),
		Unbudgeted:      unbudgeted(d.Pauses),
	}
	if secs := r.Elapsed.Seconds(); secs > 0 {
		leg.ReplicationMBps = float64(copied) / (1 << 20) / secs
	}
	leg.MMU = d.MMUCurve(d.StandardWindows())
	for p := simtime.Phase(0); p < simtime.NumPhases; p++ {
		if d.PhaseSpans[p] == 0 {
			continue
		}
		leg.Phases = append(leg.Phases, PhaseTime{
			Phase: p.String(),
			Ms:    d.PhaseTime[p].Milliseconds(),
			Count: d.PhaseSpans[p],
		})
	}
	return leg
}

// unbudgeted counts the pauses the pause bound exempts.
func unbudgeted(pauses []simtime.Pause) (n int) {
	for _, p := range pauses {
		if p.Unbudgeted() {
			n++
		}
	}
	return n
}

// perfPauseBoundMs is the pause bound of the perf cell (DESIGN.md, "Pause
// bound"): what a budgeted pause of its rt legs lasts at most.
func perfPauseBoundMs() float64 {
	return core.Config{CopyLimitBytes: perfParams().LBytes}.PauseBoundTime(simtime.Default1993()).Milliseconds()
}

// reductionPct returns how much of base the coalesced leg eliminated, as a
// percentage; 0 when the baseline did none of the work.
func reductionPct(base, coal int64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - float64(coal)/float64(base))
}

// perfParams is the parameter cell every leg runs under: the paper's 50 ms
// pause target (O = 1 MB, N = 0.2 MB, L = 100 KB), the cell every workload
// collects frequently in.
func perfParams() Params { return PaperParams()[0] }

// PerfWorkloads is the order the report (and `rtgc-bench trace`) takes the
// workloads in; BENCH_SMOKE.json commits it.
var PerfWorkloads = []string{"Primes", "Sort", "Comp"}

// perfLegs are the runs every workload gets, in report order: rt in the perf
// cell, plus the leg's delta.
var perfLegs = [...]struct {
	tag          string
	naiveBarrier bool // the append-every-store barrier coalescing replaced
	checkpointed bool // the incremental checkpoint writer attached
}{{"baseline", true, false}, {"coalesced", false, false}, {"checkpointed", false, true}}

// legs lists w's runs in perfLegs order.
func (w *PerfWorkload) legs() [len(perfLegs)]*PerfLeg {
	return [...]*PerfLeg{&w.Baseline, &w.Coalesced, &w.Checkpointed}
}

// runLeg runs w under one leg. A checkpointed leg keeps its artifacts in a
// throwaway directory the checkpoint package owns and also returns its
// writer, for what it persisted.
func runLeg(w Workload, naiveBarrier, checkpointed bool) (*Result, *checkpoint.Writer, error) {
	rc := rig.Config{Collector: rig.RT, Params: perfParams(), NaiveBarrier: naiveBarrier}
	var cw *checkpoint.Writer
	if checkpointed {
		dir, cleanup, err := checkpoint.TempDir("rtgc-bench-ckpt-")
		if err != nil {
			return nil, nil, err
		}
		defer cleanup()
		// One epoch per 4 MB allocated, 64 KB of copying per pause: the
		// steady-state cadence, not back-to-back snapshots.
		cw = checkpoint.NewWriter(checkpoint.Config{Dir: dir, BudgetBytes: 64 << 10, EveryBytes: 4 << 20})
		rc.Checkpoint = cw
	}
	res, err := Run(w, rc)
	return res, cw, err
}

// RunPerf runs the three workloads under every leg and assembles the report.
func RunPerf(s Scale, scaleName string) (*PerfReport, error) {
	rep := &PerfReport{
		Schema:    PerfSchema,
		Collector: rig.RT.Name,
		Params:    perfParams().String(),
		Scale:     scaleName,
	}
	for _, name := range PerfWorkloads {
		w, err := WorkloadByName(name, s)
		if err != nil {
			return nil, err
		}
		pw := PerfWorkload{Name: name}
		var res [len(perfLegs)]*Result
		for i, l := range perfLegs {
			r, cw, err := runLeg(w, l.naiveBarrier, l.checkpointed)
			if err != nil {
				return nil, fmt.Errorf("perf %s %s: %w", name, l.tag, err)
			}
			if i > 0 && r.Output != res[0].Output {
				return nil, fmt.Errorf("perf %s: the %s leg computed a different result than the %s leg", name, l.tag, perfLegs[0].tag)
			}
			res[i], *pw.legs()[i] = r, perfLeg(r)
			if l.checkpointed {
				persisted := cw.Stats()
				pw.Checkpoint = PerfCheckpoint{
					Epochs:        persisted.Committed,
					Aborted:       persisted.Aborted,
					SnapshotBytes: persisted.SnapshotBytes,
					WALBytes:      persisted.WALBytes,
					WordsCopied:   persisted.WordsCopied,
					PatchWords:    persisted.PatchWords,
					CheckpointMs:  r.Breakdown[simtime.AcctCheckpoint].Milliseconds(),
				}
			}
		}
		base, coal, ckpt := res[0], res[1], res[2]
		pw.ReapplyReductionPct = reductionPct(base.GC.LogReapplied, coal.GC.LogReapplied)
		pw.AppendReductionPct = reductionPct(base.LogWrites, coal.LogWrites)
		if coalMs := coal.Elapsed.Milliseconds(); coalMs > 0 {
			pw.Checkpoint.OverheadPct = 100 * (ckpt.Elapsed.Milliseconds() - coalMs) / coalMs
		}
		rep.Workloads = append(rep.Workloads, pw)
	}
	serving, err := RunServing(s)
	if err != nil {
		return nil, err
	}
	rep.Serving = serving
	multi, err := RunMulti(s)
	if err != nil {
		return nil, err
	}
	rep.Multi = multi
	return rep, nil
}

// multiSeed seeds the multi-mutator legs; one fixed seed keeps the committed
// fingerprints comparable across regenerations.
const multiSeed = 42

// multiLadder is the mutator counts of the scaling legs, in report order.
var multiLadder = []int{1, 2, 4, 8}

// RunMulti runs the multi-mutator scaling legs: the seeded group workload
// (per-member graph drivers plus a shared contended array) under the full
// real-time configuration with N ∈ {1, 2, 4, 8} mutator contexts on one
// heap and one simulated clock.
func RunMulti(s Scale) ([]MultiLeg, error) {
	var legs []MultiLeg
	for _, n := range multiLadder {
		rt, err := rig.New(rig.Config{Collector: rig.RT, Params: perfParams(), Members: n})
		if err != nil {
			return nil, fmt.Errorf("multi N=%d: %w", n, err)
		}
		g := rt.Group
		md, err := gctest.NewMultiDriver(g, multiSeed)
		if err != nil {
			return nil, fmt.Errorf("multi N=%d: %w", n, err)
		}
		for round := 0; round < s.MultiRounds; round++ {
			if err := md.Step(80); err != nil {
				return nil, fmt.Errorf("multi N=%d round %d: %w", n, round, err)
			}
		}
		if err := rt.Finish(); err != nil {
			return nil, fmt.Errorf("multi N=%d finish: %w", n, err)
		}
		st := rt.Stats()
		leg := MultiLeg{
			Mutators:     n,
			WorkMs:       st.Elapsed.Milliseconds(),
			WallMs:       g.Elapsed().Milliseconds(),
			OverlapRatio: g.OverlapRatio(),
			Minor:        st.GC.MinorCollections,
			Major:        st.GC.MajorCollections,
			GroupPauses:  len(g.GroupPauses().Pauses),
			Unbudgeted:   unbudgeted(st.Pauses.Pauses),
			Fingerprint:  fmt.Sprintf("%016x", md.Fingerprint()),
		}
		for i := range g.Members {
			leg.Utilization = append(leg.Utilization, g.Utilization(i))
		}
		leg.SyncPauseMaxMs = g.GroupPauses().Max().Milliseconds()
		leg.MMU20Ms = simtime.MMUFromPauses(g.GroupPauses().Pauses, g.Elapsed(), 20*simtime.Millisecond)
		// Verification re-reads the whole heap through the mutators and
		// charges the serial clock; it is a correctness gate, not part of the
		// measured run, so the leg is distilled first.
		if err := md.Verify(); err != nil {
			return nil, fmt.Errorf("multi N=%d verify: %w", n, err)
		}
		legs = append(legs, leg)
	}
	return legs, nil
}

// ComparePerf gates a fresh report against a committed baseline: every
// member must be equal — simulated times, pause quantiles, every MMU point,
// log counts, fingerprints, the serving and multi-mutator sections. Nothing
// is exempt. Simulated numbers do not vary across machines or runs, so there
// is no tolerance: a deliberate collector or cost-model change regenerates
// the baseline (make bench-baseline).
func ComparePerf(fresh, baseline []byte) error {
	var fr, br map[string]any
	if err := json.Unmarshal(fresh, &fr); err != nil {
		return fmt.Errorf("fresh perf report: %w", err)
	}
	if err := json.Unmarshal(baseline, &br); err != nil {
		return fmt.Errorf("baseline perf report: %w", err)
	}
	if at, f, b := firstDiff("", fr, br); at != "" {
		return fmt.Errorf("perf baseline: %s is %v, baseline has %v; simulated numbers are deterministic, so either the change moved them (explain it and run make bench-baseline) or the reports differ in scale or schema", at, f, b)
	}
	return nil
}

// missing stands in firstDiff's result for a member one side does not have;
// a JSON null that is present is reported as <nil>, so the two stay apart.
const missing = "(missing)"

// firstDiff walks two decoded JSON documents in step and returns the path
// and the two values at the first place they differ ("" when equal). Object
// keys — the union of both sides' — are visited in sorted order so the report
// is stable.
func firstDiff(path string, a, b any) (string, any, any) {
	am, aok := a.(map[string]any)
	bm, bok := b.(map[string]any)
	as, asok := a.([]any)
	bs, bsok := b.([]any)
	switch {
	case aok && bok:
		keys := make([]string, 0, len(am))
		for k := range am { //gclint:allow maprange -- the keys are sorted below
			keys = append(keys, k)
		}
		for k := range bm { //gclint:allow maprange -- the keys are sorted below
			if _, ok := am[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			av, ain := am[k]
			bv, bin := bm[k]
			switch {
			case !ain:
				return path + "." + k, missing, bv
			case !bin:
				return path + "." + k, av, missing
			}
			if at, x, y := firstDiff(path+"."+k, av, bv); at != "" {
				return at, x, y
			}
		}
	case asok && bsok && len(as) == len(bs):
		for i := range as {
			if at, x, y := firstDiff(fmt.Sprintf("%s[%d]", path, i), as[i], bs[i]); at != "" {
				return at, x, y
			}
		}
	case asok && bsok:
		return path + " (length)", len(as), len(bs)
	case !reflect.DeepEqual(a, b):
		return path, a, b
	}
	return "", nil, nil
}

// ValidatePerf checks that data parses as a PerfReport with the current
// schema, all three workloads, and internally-consistent numbers. It is the
// CI smoke check: shape and sanity, never thresholds on the measurements
// themselves.
func ValidatePerf(data []byte) error {
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("perf report: %w", err)
	}
	if rep.Schema != PerfSchema {
		return fmt.Errorf("perf report: schema %q, want %q", rep.Schema, PerfSchema)
	}
	want := make(map[string]bool, len(Workloads))
	for _, w := range Workloads {
		want[w.Name] = false
	}
	for _, w := range rep.Workloads {
		seen, ok := want[w.Name]
		if !ok {
			return fmt.Errorf("perf report: unknown workload %q", w.Name)
		}
		if seen {
			return fmt.Errorf("perf report: duplicate workload %q", w.Name)
		}
		want[w.Name] = true
		for i, leg := range w.legs() {
			if err := leg.check(); err != nil {
				return fmt.Errorf("perf report: %s %s: %w", w.Name, perfLegs[i].tag, err)
			}
			// The floor under the pause bound: a leg whose every pause had a
			// budget, and no checkpoint increment on top, is held to it.
			if bound := perfPauseBoundMs(); !perfLegs[i].checkpointed && leg.Unbudgeted == 0 && leg.PauseMaxMs > bound {
				return fmt.Errorf("perf report: %s %s: pause_max_ms = %.3f exceeds the pause bound %.1f ms and no unbudgeted pause is listed", w.Name, perfLegs[i].tag, leg.PauseMaxMs, bound)
			}
		}
		if w.Baseline.NurserySkips != 0 || w.Baseline.DirtySkips != 0 {
			return fmt.Errorf("perf report: %s baseline leg reports fast-path skips", w.Name)
		}
		c := w.Checkpoint
		if c.Epochs < 1 {
			return fmt.Errorf("perf report: %s checkpointed leg committed no epochs", w.Name)
		}
		if c.SnapshotBytes <= 0 || c.WALBytes <= 0 || c.WordsCopied <= 0 {
			return fmt.Errorf("perf report: %s checkpoint section persisted nothing (snap %d, wal %d, words %d)",
				w.Name, c.SnapshotBytes, c.WALBytes, c.WordsCopied)
		}
		if math.IsNaN(c.CheckpointMs) || c.CheckpointMs < 0 {
			return fmt.Errorf("perf report: %s checkpoint_ms = %v is not plausible", w.Name, c.CheckpointMs)
		}
		if math.IsNaN(c.OverheadPct) || math.IsInf(c.OverheadPct, 0) {
			return fmt.Errorf("perf report: %s checkpoint overhead_pct = %v is not finite", w.Name, c.OverheadPct)
		}
	}
	for _, w := range Workloads {
		if !want[w.Name] {
			return fmt.Errorf("perf report: workload %q missing", w.Name)
		}
	}
	if rep.Serving == nil {
		return fmt.Errorf("perf report: serving section missing (schema %s requires it)", PerfSchema)
	}
	if err := rep.Serving.Check(); err != nil {
		return fmt.Errorf("perf report: %w", err)
	}
	if err := checkMulti(rep.Multi); err != nil {
		return fmt.Errorf("perf report: %w", err)
	}
	return nil
}

// checkMulti validates the multi-mutator section: the standard
// scaling ladder, an exact-identity N = 1 anchor, and genuine overlap
// (ratio > 1) on every N ≥ 2 leg.
func checkMulti(legs []MultiLeg) error {
	if len(legs) != len(multiLadder) {
		return fmt.Errorf("multi section has %d legs, want %d (schema %s requires it)", len(legs), len(multiLadder), PerfSchema)
	}
	for i, leg := range legs {
		if leg.Mutators != multiLadder[i] {
			return fmt.Errorf("multi leg %d: mutators = %d, want %d", i, leg.Mutators, multiLadder[i])
		}
		if err := simtime.CheckNonNegative([]simtime.Measure{
			{"work_ms", leg.WorkMs}, {"wall_ms", leg.WallMs},
			{"overlap_ratio", leg.OverlapRatio}, {"sync_pause_max_ms", leg.SyncPauseMaxMs},
			{"mmu_20ms", leg.MMU20Ms},
		}); err != nil {
			return fmt.Errorf("multi N=%d: %w", leg.Mutators, err)
		}
		if leg.WorkMs == 0 || leg.Minor == 0 || leg.GroupPauses == 0 {
			return fmt.Errorf("multi N=%d: leg did no collected work (work %.0f ms, %d minors, %d group pauses)",
				leg.Mutators, leg.WorkMs, leg.Minor, leg.GroupPauses)
		}
		if leg.WallMs > leg.WorkMs {
			return fmt.Errorf("multi N=%d: wall %.3f ms exceeds serial work %.3f ms", leg.Mutators, leg.WallMs, leg.WorkMs)
		}
		if leg.Mutators == 1 {
			// The identity anchor: one mutator overlaps nothing, so the wall
			// timeline must be the serial clock exactly.
			if leg.OverlapRatio != 1 {
				return fmt.Errorf("multi N=1: overlap ratio %v, want exactly 1", leg.OverlapRatio)
			}
		} else if leg.OverlapRatio <= 1 {
			return fmt.Errorf("multi N=%d: overlap ratio %v, want > 1 (collection overlapped no mutator time)",
				leg.Mutators, leg.OverlapRatio)
		}
		if len(leg.Utilization) != leg.Mutators {
			return fmt.Errorf("multi N=%d: %d utilization entries", leg.Mutators, len(leg.Utilization))
		}
		for j, u := range leg.Utilization {
			if math.IsNaN(u) || u <= 0 || u > 1 {
				return fmt.Errorf("multi N=%d: mutator %d utilization %v outside (0, 1]", leg.Mutators, j, u)
			}
		}
		if bound := perfPauseBoundMs(); leg.Unbudgeted == 0 && leg.SyncPauseMaxMs > bound {
			return fmt.Errorf("multi N=%d: sync_pause_max_ms = %.3f exceeds the pause bound %.1f ms and no unbudgeted pause is listed", leg.Mutators, leg.SyncPauseMaxMs, bound)
		}
		if leg.MMU20Ms >= 1 {
			return fmt.Errorf("multi N=%d: MMU@20ms = %v with %d group pauses", leg.Mutators, leg.MMU20Ms, leg.GroupPauses)
		}
		if len(leg.Fingerprint) != 16 {
			return fmt.Errorf("multi N=%d: fingerprint %q is not 16 hex digits", leg.Mutators, leg.Fingerprint)
		}
	}
	return nil
}

// check rejects legs with impossible measurements.
func (l PerfLeg) check() error {
	if err := simtime.CheckNonNegative([]simtime.Measure{
		{"elapsed_ms", l.ElapsedMs}, {"replication_mb_s", l.ReplicationMBps},
		{"pause_min_ms", l.PauseMinMs}, {"pause_median_ms", l.PauseMedianMs},
		{"pause_p95_ms", l.PauseP95Ms}, {"pause_max_ms", l.PauseMaxMs},
	}); err != nil {
		return err
	}
	if l.ElapsedMs == 0 || l.Pauses == 0 {
		return fmt.Errorf("run did no work (elapsed %.0f ms, %d pauses)", l.ElapsedMs, l.Pauses)
	}
	if l.PauseMinMs > l.PauseMedianMs || l.PauseMedianMs > l.PauseP95Ms || l.PauseP95Ms > l.PauseMaxMs {
		return fmt.Errorf("pause percentiles are not monotone")
	}
	if l.LogReapplied > l.LogScanned {
		return fmt.Errorf("re-applied %d entries but scanned only %d", l.LogReapplied, l.LogScanned)
	}
	if err := simtime.CheckMMUCurve(l.MMU); err != nil {
		return err
	}
	if len(l.Phases) == 0 {
		return fmt.Errorf("phase attribution is empty (schema %s requires it)", PerfSchema)
	}
	for _, ph := range l.Phases {
		if ph.Phase == "" {
			return fmt.Errorf("phase attribution entry with empty phase name")
		}
		if math.IsNaN(ph.Ms) || math.IsInf(ph.Ms, 0) || ph.Ms < 0 || ph.Count <= 0 {
			return fmt.Errorf("phase %s: %.3f ms over %d spans is not plausible", ph.Phase, ph.Ms, ph.Count)
		}
	}
	return nil
}
