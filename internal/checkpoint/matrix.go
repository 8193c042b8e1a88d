package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repligc/internal/artifact"
	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/rig"
)

// MatrixConfig parameterises the crash-point matrix: workload seeds × crash
// plans, all deterministic, so a failing cell replays exactly.
type MatrixConfig struct {
	// Seeds drive the gctest shadow-model workload, one reference run per
	// seed.
	Seeds []uint64
	// OpsPerRun is the workload length before the final forced commit.
	OpsPerRun int
	// Plans are the crash sites applied to each run's artifacts; zero
	// plans means baseline-only (recover the undamaged artifacts).
	Plans []faultinject.CrashPlan
	// BudgetBytes is the writer's per-pause copy budget; small values
	// spread each epoch over many pauses, widening the window the WAL
	// patches must cover. Zero defaults to 16 KB.
	BudgetBytes int64
	// WorkDir hosts the per-case artifact directories. Empty uses a
	// temporary directory that is removed when the matrix finishes.
	WorkDir string
}

// CaseResult is one matrix cell.
type CaseResult struct {
	Seed    uint64 `json:"seed"`
	Plan    string `json:"plan"` // "baseline" for the undamaged control
	Outcome string `json:"outcome"`
	Epoch   uint64 `json:"epoch,omitempty"` // recovered epoch, when recovery succeeded
	Err     string `json:"err,omitempty"`
	Failed  bool   `json:"failed"` // true when the cell violates the contract
}

// MatrixReport aggregates the matrix for the CI artifact.
type MatrixReport struct {
	Schema   string       `json:"schema"`
	Cases    []CaseResult `json:"cases"`
	Failures int          `json:"failures"`
	Epochs   int          `json:"epochs"` // committed epochs across reference runs
}

// MatrixSchema identifies the report format.
const MatrixSchema = "repligc-crash-matrix/1"

// matrixHeap sizes the heap of every fresh matrix run; recovery maps no
// larger arena than it.
var matrixHeap = heap.Config{NurseryBytes: 16 << 10, NurseryCapBytes: 64 << 10, OldSemiBytes: 512 << 10}

// matrixConfig is the runtime every matrix run builds, fresh (restored nil)
// or over a recovered heap: a heap tight enough that the gctest driver
// provokes minors, promotions and majors within a few thousand operations,
// under rt with unbounded log processing and interleaved pacing, which
// multiplies pause-boundary hook points so that epochs spread over many
// small increments.
func matrixConfig(restored *heap.Heap) rig.Config {
	coll := rig.RT
	coll.Name = "rt-tax200"
	coll.Engine.InterleavedTaxPermille = 200
	rc := rig.Config{
		Collector: coll,
		Params:    rig.Params{NBytes: matrixHeap.NurseryBytes, OBytes: 192 << 10, LBytes: 8 << 10},
		Heap:      restored,
	}
	if restored == nil {
		rc.NurseryCapBytes, rc.OldSemiBytes = matrixHeap.NurseryCapBytes, matrixHeap.OldSemiBytes
	}
	return rc
}

// referenceRun drives one seeded workload with a checkpoint writer attached
// and returns the writer (for its per-epoch fingerprints) and the final
// mutator/collector (for the uncrashed continuation).
func referenceRun(dir string, seed uint64, ops int, budget int64) (*Writer, *core.Mutator, *core.Replicating, error) {
	w := NewWriter(Config{Dir: dir, BudgetBytes: budget})
	rc := matrixConfig(nil)
	rc.Checkpoint = w
	rt, err := rig.New(rc)
	if err != nil {
		return nil, nil, nil, err
	}
	d := gctest.NewDriver(rt.Mutator, int64(seed))
	if err := d.Step(ops); err != nil {
		return nil, nil, nil, fmt.Errorf("reference run seed %d: %w", seed, err)
	}
	if err := d.Verify(); err != nil {
		return nil, nil, nil, fmt.Errorf("reference run seed %d: shadow verify: %w", seed, err)
	}
	if err := rt.Finish(); err != nil {
		return nil, nil, nil, err
	}
	return w, rt.Mutator, rt.GC.(*core.Replicating), nil
}

// rebuild constructs a fresh runtime over restored state.
func rebuild(r *Restored) (*core.Mutator, *core.Replicating, error) {
	rt, err := rig.New(matrixConfig(r.Heap))
	if err != nil {
		return nil, nil, err
	}
	gc := rt.GC.(*core.Replicating)
	r.Attach(rt.Mutator, gc)
	return rt.Mutator, gc, nil
}

// probeRecovered exercises a recovered runtime: the heap must audit clean,
// survive continued allocation with collections, and the degradation ladder
// must still end in a typed OOM and come back after headroom is restored.
func probeRecovered(m *core.Mutator, gc *core.Replicating) error {
	if err := core.AuditHeap(m); err != nil {
		return fmt.Errorf("post-recovery audit: %w", err)
	}
	for i := 0; i < 512; i++ {
		if _, err := m.Alloc(heap.KindArray, 4); err != nil {
			return fmt.Errorf("post-recovery alloc %d: %w", i, err)
		}
	}
	if err := gc.FinishCycles(m); err != nil {
		return fmt.Errorf("post-recovery FinishCycles: %w", err)
	}
	if err := core.AuditHeap(m); err != nil {
		return fmt.Errorf("post-continuation audit: %w", err)
	}

	// Degradation ladder: shrink every space to near its current use; the
	// ladder must degrade to a typed *core.OOMError, never a panic or a
	// silent corruption.
	h := m.H
	h.Nursery.SetLimitBytes(h.Nursery.UsedBytes() + 256)
	h.OldFrom().SetLimitBytes(h.OldFrom().UsedBytes() + 256)
	h.OldTo().SetLimitBytes(h.OldTo().UsedBytes() + 256)
	var oom *core.OOMError
	sawOOM := false
	for i := 0; i < 4096; i++ {
		if _, err := m.Alloc(heap.KindArray, 16); err != nil {
			if !errors.As(err, &oom) {
				return fmt.Errorf("ladder surfaced a non-typed error: %w", err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		return fmt.Errorf("shrunk heap never reached the typed OOM rung")
	}
	// RestoreHeadroom: limits back to capacity, allocation must recover.
	for _, s := range []*heap.Space{&h.Nursery, h.OldFrom(), h.OldTo()} {
		s.SetLimitBytes(int64(s.Cap-s.Lo) * heap.BytesPerWord)
	}
	if _, err := m.Alloc(heap.KindArray, 16); err != nil {
		return fmt.Errorf("alloc after headroom restore: %w", err)
	}
	if err := core.AuditHeap(m); err != nil {
		return fmt.Errorf("post-ladder audit: %w", err)
	}
	return nil
}

// epochFingerprint looks up the writer-recorded fingerprint for epoch.
func epochFingerprint(w *Writer, epoch uint64) (uint64, bool) {
	for _, e := range w.Stats().Epochs {
		if e.Epoch == epoch {
			return e.Fingerprint, true
		}
	}
	return 0, false
}

// RunCrashMatrix executes the full matrix. Every cell must end in one of
// two outcomes — a recovery whose fingerprint matches the writer's
// commit-time hash for that epoch (then audit + ladder must pass), or a
// typed *artifact.CorruptError — and the report marks any other ending as a failure.
//
//gclint:allow io -- owns the per-case artifact directories under the matrix work dir
func RunCrashMatrix(cfg MatrixConfig) (*MatrixReport, error) {
	if cfg.OpsPerRun <= 0 {
		cfg.OpsPerRun = 4000
	}
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = 16 << 10
	}
	work := cfg.WorkDir
	if work == "" {
		tmp, err := os.MkdirTemp("", "rtgc-crash-matrix-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		work = tmp
	}

	rep := &MatrixReport{Schema: MatrixSchema}
	for si, seed := range cfg.Seeds {
		refDir := filepath.Join(work, fmt.Sprintf("ref-%d", si))
		w, _, _, err := referenceRun(refDir, seed, cfg.OpsPerRun, cfg.BudgetBytes)
		if err != nil {
			return nil, err
		}
		rep.Epochs += w.Stats().Committed

		// Baseline control: the undamaged artifacts must recover to the
		// newest epoch with a matching fingerprint.
		rep.add(runCase(w, refDir, seed, "baseline", false))

		for pi, plan := range cfg.Plans {
			// Newest-epoch damage first: recovery may fall back to an older
			// retained epoch, or reject with a typed error. Then all-epochs
			// damage: nothing intact remains, so the only contractual ending
			// is the typed rejection — never a silently wrong heap.
			for _, all := range []bool{false, true} {
				name, caseDir := plan.String(), filepath.Join(work, fmt.Sprintf("case-%d-%d", si, pi))
				if all {
					name, caseDir = name+"/all-epochs", caseDir+"-all"
				}
				if err := CloneDir(refDir, caseDir); err != nil {
					return nil, err
				}
				if err := ApplyCrash(caseDir, plan, all); err != nil {
					rep.add(CaseResult{Seed: seed, Plan: name, Outcome: "crash-apply-error", Err: err.Error(), Failed: true})
					break
				}
				rep.add(runCase(w, caseDir, seed, name, true))
			}
		}
	}
	for i := range rep.Cases {
		c := &rep.Cases[i]
		// Errors name artifacts relative to the work directory: the report
		// is a function of the tree, not of where the matrix happened to run.
		c.Err = strings.ReplaceAll(c.Err, filepath.Clean(work)+string(filepath.Separator), "")
		if c.Failed {
			rep.Failures++
		}
	}
	return rep, nil
}

func (rep *MatrixReport) add(c CaseResult) { rep.Cases = append(rep.Cases, c) }

// Check rejects a document that is not a self-consistent crash-matrix
// report: every cell is either marked failed or one of the two contractual
// endings, and the failure count is the number of failed cells. Whether a
// report with failures is acceptable is the caller's business.
func (rep *MatrixReport) Check() error {
	if rep.Schema != MatrixSchema {
		return fmt.Errorf("crash matrix: schema %q, want %q", rep.Schema, MatrixSchema)
	}
	if len(rep.Cases) == 0 {
		return fmt.Errorf("crash matrix: no cases")
	}
	failed := 0
	for _, c := range rep.Cases {
		switch {
		case c.Failed:
			failed++
		case c.Outcome == "recovered" && c.Epoch > 0 && c.Err == "":
		case c.Outcome == "corrupt-detected" && c.Err != "" && c.Plan != "baseline":
		default:
			return fmt.Errorf("crash matrix: seed %d plan %s: outcome %q (epoch %d, err %q) is neither contractual ending, yet not marked failed",
				c.Seed, c.Plan, c.Outcome, c.Epoch, c.Err)
		}
	}
	if failed != rep.Failures {
		return fmt.Errorf("crash matrix: %d failures claimed, %d cells marked failed", rep.Failures, failed)
	}
	return nil
}

// runCase recovers one (possibly damaged) artifact directory, classifying
// the outcome against the contract.
func runCase(w *Writer, dir string, seed uint64, planName string, damaged bool) CaseResult {
	c := CaseResult{Seed: seed, Plan: planName}
	r, err := RecoverWithin(dir, matrixHeap.ArenaBytes())
	if err != nil {
		var ce *artifact.CorruptError
		if errors.As(err, &ce) {
			// Typed rejection is a contractual outcome — but only under
			// damage; the baseline must recover.
			c.Outcome, c.Err = "corrupt-detected", err.Error()
			c.Failed = !damaged
			return c
		}
		c.Outcome, c.Err, c.Failed = "untyped-error", err.Error(), true
		return c
	}
	c.Epoch = r.Epoch
	want, ok := epochFingerprint(w, r.Epoch)
	if !ok {
		c.Outcome, c.Err, c.Failed = "unknown-epoch", fmt.Sprintf("recovered epoch %d was never committed", r.Epoch), true
		return c
	}
	if r.Fingerprint != want {
		c.Outcome, c.Failed = "fingerprint-mismatch", true
		c.Err = fmt.Sprintf("recovered fingerprint %#x, reference %#x", r.Fingerprint, want)
		return c
	}
	m, gc, err := rebuild(r)
	if err == nil {
		err = probeRecovered(m, gc)
	}
	if err != nil {
		c.Outcome, c.Err, c.Failed = "probe-failed", err.Error(), true
		return c
	}
	c.Outcome = "recovered"
	return c
}
