package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repligc/internal/artifact"
	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// buildRun constructs a traced runtime with a checkpoint writer attached.
func buildRun(t *testing.T, dir string, budget int64) (*core.Mutator, *core.Replicating, *Writer, *trace.Recorder) {
	t.Helper()
	tr := trace.NewRecorder(1 << 20)
	w := NewWriter(Config{Dir: dir, BudgetBytes: budget})
	rc := matrixConfig(nil)
	rc.Trace, rc.Checkpoint = tr, w
	rt, err := rig.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Mutator, rt.GC.(*core.Replicating), w, tr
}

// TestRoundTrip is the core tentpole property: drive a workload through
// many incremental checkpoint epochs, recover from the artifacts, and the
// restored state must be fingerprint-identical to what the writer hashed
// from the live heap at commit — with a clean audit and a working collector
// afterwards.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, gc, w, tr := buildRun(t, dir, 8<<10)

	d := gctest.NewDriver(m, 42)
	if err := d.Step(20000); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("shadow verify: %v", err)
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatalf("FinishCycles: %v", err)
	}
	if err := w.ForceCommit(m, gc); err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}
	st := w.Stats()
	if st.Committed == 0 {
		t.Fatal("no epochs committed")
	}
	t.Logf("epochs=%d aborted=%d copied=%d words, patches=%d, snapBytes=%d walBytes=%d",
		st.Committed, st.Aborted, st.WordsCopied, st.PatchWords, st.SnapshotBytes, st.WALBytes)

	r, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want, ok := epochFingerprint(w, r.Epoch)
	if !ok {
		t.Fatalf("recovered epoch %d never committed", r.Epoch)
	}
	if r.Fingerprint != want {
		t.Fatalf("fingerprint %#x, want %#x", r.Fingerprint, want)
	}

	// The recovered image must be bit-identical to the live heap over the
	// captured ranges (the fingerprint already implies this; compare
	// directly so a hash collision cannot mask a divergence in this test).
	h := m.H
	from := h.OldFrom()
	rfrom := r.Heap.OldFrom()
	if from.Next != rfrom.Next || from.Hi != rfrom.Hi {
		t.Fatalf("old-from geometry: live next=%d hi=%d, restored next=%d hi=%d",
			from.Next, from.Hi, rfrom.Next, rfrom.Hi)
	}
	for i := from.Lo; i < from.Next; i++ {
		if h.Word(i) != r.Heap.Word(i) {
			t.Fatalf("old-from word %d: live %#x, restored %#x", i, h.Word(i), r.Heap.Word(i))
		}
	}
	for i := h.Nursery.Lo; i < h.Nursery.Next; i++ {
		if h.Word(i) != r.Heap.Word(i) {
			t.Fatalf("nursery word %d: live %#x, restored %#x", i, h.Word(i), r.Heap.Word(i))
		}
	}

	m2, gc2, err := rebuild(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AuditHeap(m2); err != nil {
		t.Fatalf("post-recovery audit: %v", err)
	}
	if err := probeRecovered(m2, gc2); err != nil {
		t.Fatalf("probe: %v", err)
	}

	// The run's trace must validate with the checkpoint phase present.
	events := tr.Events()
	if err := trace.Validate(events); err != nil {
		t.Fatalf("trace validate: %v", err)
	}
	saw := false
	for _, e := range events {
		if e.Kind == trace.KindPhase && e.Phase == simtime.PhaseCheckpoint {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("no checkpoint phase spans in the trace")
	}
	if m.Clock.AccountTotal(simtime.AcctCheckpoint) <= 0 {
		t.Fatal("no time charged to the checkpoint account")
	}
}

// TestEpochsSpanMultiplePauses checks the incrementality claim: with a
// small budget, committed epochs spread their copying across several
// pauses rather than dumping the heap in one.
func TestEpochsSpanMultiplePauses(t *testing.T) {
	dir := t.TempDir()
	m, gc, w, _ := buildRun(t, dir, 2<<10)
	d := gctest.NewDriver(m, 7)
	if err := d.Step(8000); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatalf("FinishCycles: %v", err)
	}
	if err := w.ForceCommit(m, gc); err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}
	multi := 0
	for _, e := range w.Stats().Epochs {
		if e.Pauses > 1 {
			multi++
		}
	}
	if w.Stats().Committed > 2 && multi == 0 {
		t.Fatalf("every one of %d epochs committed in a single pause under a 2 KB budget", w.Stats().Committed)
	}
}

// epochCounter counts, apart from the writer it wraps, the pauses each
// committed epoch was open in: the pause that began it through the one that
// committed it.
type epochCounter struct {
	*Writer
	open int   // pauses counted so far for the open epoch
	want []int // one per committed epoch
}

func (c *epochCounter) PauseCheckpoint(m *core.Mutator, p core.CheckpointPoint) bool {
	wasOpen, aborted := c.Writer.open, c.Writer.stats.Aborted
	committed := c.Writer.PauseCheckpoint(m, p)
	switch {
	case !c.Writer.open && !committed:
		c.open = 0
	case wasOpen && c.Writer.stats.Aborted == aborted:
		c.open++
	default:
		c.open = 1 // begun in this pause
	}
	if committed {
		c.want, c.open = append(c.want, c.open), 0
	}
	return committed
}

func (c *epochCounter) ForceCommit(m *core.Mutator, gc *core.Replicating) error {
	n := 1
	if c.Writer.open {
		n = c.open + 1
	}
	before := c.Writer.stats.Committed
	err := c.Writer.ForceCommit(m, gc)
	if c.Writer.stats.Committed > before {
		c.want = append(c.want, n)
	}
	return err
}

// TestEpochPausesCountsEveryPause holds EpochInfo.Pauses to the number of
// pauses the epoch spanned, with the writer's Stats read between pauses as a
// run report may: reading the counters must not touch the open epoch.
func TestEpochPausesCountsEveryPause(t *testing.T) {
	c := &epochCounter{Writer: NewWriter(Config{Dir: t.TempDir(), BudgetBytes: 16 << 10})}
	rc := matrixConfig(nil)
	rc.Collector, rc.Checkpoint = rig.RT, c
	rt, err := rig.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	m, gc := rt.Mutator, rt.GC.(*core.Replicating)
	d := gctest.NewDriver(m, 7)
	readMidEpoch := 0
	for i := 0; i < 100; i++ {
		if err := d.Step(200); err != nil {
			t.Fatalf("driver: %v", err)
		}
		if c.Writer.open {
			readMidEpoch++
		}
		c.Stats()
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatalf("FinishCycles: %v", err)
	}
	if err := c.ForceCommit(m, gc); err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}
	epochs := c.Stats().Epochs
	if len(epochs) != len(c.want) {
		t.Fatalf("%d epochs committed, the counter saw %d", len(epochs), len(c.want))
	}
	multi := 0
	for i, e := range epochs {
		if e.Pauses != c.want[i] {
			t.Errorf("epoch %d: Pauses = %d, it spanned %d", e.Epoch, e.Pauses, c.want[i])
		}
		if e.Pauses > 1 {
			multi++
		}
	}
	if readMidEpoch == 0 || multi == 0 {
		t.Fatalf("Stats read mid-epoch %d times, %d of %d epochs spanned more than one pause: the check proves nothing", readMidEpoch, multi, len(epochs))
	}
}

// TestRecoverFromCrashes runs the deterministic crash-point matrix and
// requires every cell to land on the contract: fingerprint-verified
// recovery or typed corruption, never anything else.
func TestRecoverFromCrashes(t *testing.T) {
	rep, err := RunCrashMatrix(MatrixConfig{
		Seeds: []uint64{1, 2, 3},
		Plans: faultinject.CrashPlans(0xc0ffee, 12),
	})
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	outcomes := map[string]int{}
	for _, c := range rep.Cases {
		t.Logf("seed=%d plan=%s outcome=%s epoch=%d err=%q", c.Seed, c.Plan, c.Outcome, c.Epoch, c.Err)
		if c.Failed {
			t.Errorf("cell failed: seed=%d plan=%s outcome=%s: %s", c.Seed, c.Plan, c.Outcome, c.Err)
		}
		outcomes[c.Outcome]++
	}
	if rep.Epochs == 0 {
		t.Fatal("reference runs committed no epochs")
	}
	// The matrix must exercise both contractual endings: fallback recovery
	// from surviving epochs and typed rejection when nothing intact remains.
	if outcomes["recovered"] == 0 || outcomes["corrupt-detected"] == 0 {
		t.Fatalf("matrix did not cover both contract outcomes: %v", outcomes)
	}
}

// TestCrashMatrixReportIgnoresWorkDir runs the same matrix in two work
// directories: the reports must marshal byte-identically, so the error
// strings (which quote artifact paths) name them relative to the work
// directory.
func TestCrashMatrixReportIgnoresWorkDir(t *testing.T) {
	var docs [2][]byte
	for i := range docs {
		work := t.TempDir()
		rep, err := RunCrashMatrix(MatrixConfig{
			Seeds:   []uint64{1},
			Plans:   faultinject.CrashPlans(0xc0ffee, 4),
			WorkDir: work,
		})
		if err != nil {
			t.Fatal(err)
		}
		quoted := 0
		for _, c := range rep.Cases {
			if strings.Contains(c.Err, work) {
				t.Errorf("plan %s: err names the work directory: %s", c.Plan, c.Err)
			}
			if strings.Contains(c.Err, ".ckpt") {
				quoted++
			}
		}
		if quoted == 0 {
			t.Fatal("no case quoted an artifact path; the comparison below would prove nothing")
		}
		if docs[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("the same matrix in two work directories gave different reports:\n%s\n%s", docs[0], docs[1])
	}
}

// TestPostRestoreOOMRecovery is the quick-checked degradation property: a
// recovered runtime squeezed to an arbitrary (generated) headroom and
// allocation size must walk the ladder to a typed *core.OOMError — never a
// panic or an untyped failure — and come back once headroom is restored.
func TestPostRestoreOOMRecovery(t *testing.T) {
	dir := t.TempDir()
	m, gc, w, _ := buildRun(t, dir, 8<<10)
	d := gctest.NewDriver(m, 11)
	if err := d.Step(6000); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatalf("FinishCycles: %v", err)
	}
	if err := w.ForceCommit(m, gc); err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}

	prop := func(slackSeed uint16, sizeSeed uint8) bool {
		r, err := Recover(dir)
		if err != nil {
			t.Logf("recover: %v", err)
			return false
		}
		m2, _, err := rebuild(r)
		if err != nil {
			t.Log(err)
			return false
		}
		slack := int64(slackSeed%2048) + 64
		words := int(sizeSeed%32) + 1
		h := r.Heap
		h.Nursery.SetLimitBytes(h.Nursery.UsedBytes() + slack)
		h.OldFrom().SetLimitBytes(h.OldFrom().UsedBytes() + slack)
		h.OldTo().SetLimitBytes(h.OldTo().UsedBytes() + slack)

		// Live allocations (pinned on the shadow stack) must exhaust the
		// shrunk heap and surface the typed OOM rung.
		mark := m2.HandleMark()
		sawOOM := false
		for i := 0; i < 1<<16; i++ {
			v, err := m2.Alloc(heap.KindArray, words)
			if err != nil {
				var oom *core.OOMError
				if !errors.As(err, &oom) {
					t.Logf("slack=%d words=%d: untyped alloc error: %v", slack, words, err)
					return false
				}
				sawOOM = true
				break
			}
			m2.PushHandle(v)
		}
		if !sawOOM {
			t.Logf("slack=%d words=%d: shrunk heap never reached OOM", slack, words)
			return false
		}

		// Release the pinned garbage, restore headroom: allocation recovers.
		m2.PopHandles(mark)
		for _, s := range []*heap.Space{&h.Nursery, h.OldFrom(), h.OldTo()} {
			s.SetLimitBytes(int64(s.Cap-s.Lo) * heap.BytesPerWord)
		}
		if _, err := m2.Alloc(heap.KindArray, words); err != nil {
			t.Logf("slack=%d words=%d: alloc after headroom restore: %v", slack, words, err)
			return false
		}
		if err := core.AuditHeap(m2); err != nil {
			t.Logf("slack=%d words=%d: post-ladder audit: %v", slack, words, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverEmptyDir pins the no-artifact behaviour: a typed error.
func TestRecoverEmptyDir(t *testing.T) {
	_, err := Recover(t.TempDir())
	var ce *artifact.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Recover on empty dir: %v (want *artifact.CorruptError)", err)
	}
}

// TestPublishFailure makes every epoch's publishing rename fail — a
// directory sits where the first epoch's file would be renamed to — and holds
// the writer to its best-effort contract: the run finishes, the error
// surfaces through Stats, ForceCommit and the runtime's Finish, no temporary
// file is left behind, and nothing recovery would accept is published.
func TestPublishFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(epochPath(dir, 1), 0o777); err != nil {
		t.Fatal(err)
	}
	w := NewWriter(Config{Dir: dir, BudgetBytes: 16 << 10})
	rc := matrixConfig(nil)
	rc.Checkpoint = w
	rt, err := rig.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	d := gctest.NewDriver(rt.Mutator, 3)
	if err := d.Step(3000); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("shadow verify: %v", err)
	}
	finishErr := rt.Finish()
	st := w.Stats()
	if st.LastErr == nil || st.Committed != 0 || st.Aborted == 0 {
		t.Fatalf("LastErr %v, %d committed, %d aborted: want an error, no commit and the failed epochs aborted", st.LastErr, st.Committed, st.Aborted)
	}
	if !errors.Is(finishErr, st.LastErr) {
		t.Errorf("Finish returned %v, want the writer's %v", finishErr, st.LastErr)
	}
	if err := w.ForceCommit(rt.Mutator, rt.GC.(*core.Replicating)); err == nil || err != w.Stats().LastErr {
		t.Errorf("ForceCommit returned %v, want the writer's %v", err, w.Stats().LastErr)
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err != nil || len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v (%v)", tmps, err)
	}
	var ce *artifact.CorruptError
	if r, err := Recover(dir); !errors.As(err, &ce) {
		t.Errorf("Recover returned (%v, %v), want a *artifact.CorruptError", r != nil, err)
	}
}

// TestMatrixReportCheck holds the committed crash_matrix.json to Check, and
// Check to rejecting each way a report can contradict itself.
func TestMatrixReportCheck(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "crash_matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	baseline := func(rep *MatrixReport) *CaseResult {
		for i := range rep.Cases {
			if rep.Cases[i].Plan == "baseline" {
				return &rep.Cases[i]
			}
		}
		t.Fatal("the report has no baseline cell")
		return nil
	}
	for _, c := range []struct {
		name   string
		mutate func(*MatrixReport)
		ok     bool
	}{
		{"committed report", func(*MatrixReport) {}, true},
		{"wrong schema", func(rep *MatrixReport) { rep.Schema = "repligc-crash-matrix/0" }, false},
		{"empty cases", func(rep *MatrixReport) { rep.Cases = nil }, false},
		{"uncontractual outcome not marked failed", func(rep *MatrixReport) {
			rep.Cases[len(rep.Cases)-1].Outcome = "untyped-error"
		}, false},
		{"corrupt-detected baseline", func(rep *MatrixReport) {
			b := baseline(rep)
			b.Outcome, b.Epoch, b.Err = "corrupt-detected", 0, "no recoverable epoch"
		}, false},
		{"failure count does not match", func(rep *MatrixReport) { rep.Failures++ }, false},
	} {
		var rep MatrixReport
		if err := json.Unmarshal(doc, &rep); err != nil {
			t.Fatal(err)
		}
		c.mutate(&rep)
		if err := rep.Check(); (err == nil) != c.ok {
			t.Errorf("%s: Check returned %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestEmptyHeapEpoch commits an epoch before anything is allocated, so its
// image section is the header alone, with no segment, and recovers it.
func TestEmptyHeapEpoch(t *testing.T) {
	dir := t.TempDir()
	w := NewWriter(Config{Dir: dir})
	rc := matrixConfig(nil)
	rc.Checkpoint = w
	rt, err := rig.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Committed != 1 || st.WordsCopied != 0 {
		t.Fatalf("%d epochs committed, %d words copied: want one epoch with no segment", st.Committed, st.WordsCopied)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if want := w.Stats().Epochs[0].Fingerprint; r.Fingerprint != want {
		t.Fatalf("fingerprint %#x, want %#x", r.Fingerprint, want)
	}
}
