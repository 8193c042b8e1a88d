package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/rig"
)

var updateEngineGolden = flag.Bool("update-engine-golden", false,
	"rewrite testdata/engine_golden.txt from the current collector")

// engineGoldenOps is the length of one cell's torture run.
const engineGoldenOps = 40000

// engineShapes are the two heap shapes the cells run in, one per seed; both
// make every generation small, so a short run crosses many collections, and
// cap the nursery close above N, so awaiting completion runs into the
// expansion bound. The torture driver's live graph keeps growing and most of
// a nursery survives: under "tight" (L = N/8) a minor collection spans a
// dozen pauses and leaves the major only scraps; under "roomy" (L = 3N) the
// minor completes in one pause and the major advances incrementally on what
// is left of each.
var engineShapes = []struct {
	name   string
	seed   int64
	params Params
}{
	{"tight", 3, Params{NBytes: 32 << 10, OBytes: 64 << 10, LBytes: 4 << 10}},
	{"roomy", 11, Params{NBytes: 32 << 10, OBytes: 64 << 10, LBytes: 96 << 10}},
}

func engineGoldenConfig(cfg rig.Collector, p Params) rig.Config {
	return rig.Config{Collector: cfg, Params: p, OldSemiBytes: 4 << 20, NurseryCapBytes: 48 << 10}
}

// enginePlan is one fault schedule every configuration runs under.
type enginePlan struct {
	name string
	plan faultinject.Plan
	// naiveBarrier appends every store to the log: the injector's spikes
	// hammer eight slots of one object, which the coalescing barrier would
	// fold into eight entries.
	naiveBarrier bool
}

// enginePlans builds the schedules. The log spikes land thousands of entries
// between two pauses. shrink-old clamps the old generation to within a few
// kilobytes of its use again and again — twice just before an oversized
// allocation — so promotions, major copies and direct allocations overflow
// mid-cycle and surface as typed errors until the headroom comes back.
// force-complete ends incremental cycles early.
func enginePlans() []enginePlan {
	ev := func(at int64, a faultinject.Action, arg int64) faultinject.Event {
		return faultinject.Event{AtOp: at, Action: a, Arg: arg}
	}
	var shrinks []faultinject.Event
	for i, at := range []int64{1500, 4090, 7777, 11000, 14300, 18000, 22520, 26000, 29900, 33333, 36000, 38905} {
		slack := int64(i%5) * 1500
		shrinks = append(shrinks, ev(at, faultinject.ShrinkOld, slack), ev(at+180, faultinject.RestoreHeadroom, 0))
	}
	return []enginePlan{
		{name: "none"},
		{name: "log-spike", naiveBarrier: true, plan: faultinject.Plan{Events: []faultinject.Event{
			ev(3000, faultinject.LogSpike, 900), ev(11000, faultinject.LogSpike, 3000),
			ev(11001, faultinject.ForceCollect, 0), ev(24400, faultinject.LogSpike, 1500),
			ev(33000, faultinject.LogSpike, 6000),
		}}},
		{name: "shrink-old", plan: faultinject.Plan{Events: shrinks}},
		{name: "force-complete", plan: faultinject.Plan{Every: 4999, Events: []faultinject.Event{
			ev(4500, faultinject.ForceComplete, 0), ev(12500, faultinject.ForceComplete, 0),
			ev(13000, faultinject.ForceCollect, 0), ev(25500, faultinject.ForceComplete, 0),
			ev(37000, faultinject.ForceComplete, 0),
		}}},
	}
}

// TestEngineSimulatedIdentity pins the absolute simulated outcome of the
// replicating collector in every shape it runs in: each replicating
// configuration under shadow-model torture runs with byte mutations and
// oversized allocations, crossed with fault plans that reach the typed
// exhaustion, rewind and forced-completion paths, plus a checkpointed run
// and a four-mutator group. A change to how the engine is written must
// leave every cell untouched; a cell that moves means a copy, a charge, a
// cursor or their order changed.
func TestEngineSimulatedIdentity(t *testing.T) {
	r := runEngineCells(t)
	checkGolden(t, filepath.Join("testdata", "engine_golden.txt"), *updateEngineGolden, r.golden)
}

// engineRun is what the engine cells produce: the golden text, and the budget
// fingerprint and projection (budget_pin_test.go) of each replicating
// configuration's solo cells and of the recorded-and-replayed pair.
type engineRun struct {
	golden string
	pins   map[string][2]uint64
	err    error
}

var (
	engineRunOnce sync.Once
	engineRunDone engineRun
)

// runEngineCells runs every engine cell once per test binary, however many
// tests read the outcome.
func runEngineCells(t *testing.T) engineRun {
	t.Helper()
	engineRunOnce.Do(func() { engineRunDone = engineCells() })
	if engineRunDone.err != nil {
		t.Fatal(engineRunDone.err)
	}
	return engineRunDone
}

func engineCells() engineRun {
	configs := []rig.Collector{rig.RT, rig.MinorInc, rig.MajorInc, rig.RTLazy, rig.RTDefer}
	var got strings.Builder
	pins := map[string][2]uint64{}
	var cellErr error
	cell := func(label string, rc rig.Config, seed int64, plan faultinject.Plan) string {
		line, err := engineGoldenCell(rc, seed, plan)
		if err != nil && cellErr == nil {
			cellErr = fmt.Errorf("%s %s: %v", rc.Collector.Name, label, err)
		}
		fmt.Fprintf(&got, "%s %s %s", rc.Collector.Name, label, line)
		return line
	}
	plans := enginePlans()
	for _, cfg := range configs {
		full, proj := fnv.New64a(), fnv.New64a()
		for _, sh := range engineShapes {
			for _, p := range plans {
				rec := &budgetRecorder{}
				rc := engineGoldenConfig(cfg, sh.params)
				rc.Checkpoint, rc.NaiveBarrier = rec, p.naiveBarrier
				line := cell(fmt.Sprintf("%s seed=%d %s", sh.name, sh.seed, p.name), rc, sh.seed, p.plan)
				if cellErr != nil {
					return engineRun{err: cellErr}
				}
				got.WriteByte('\n')
				fmt.Fprintf(full, "%016x;", rec.fingerprint(line))
				fmt.Fprintf(proj, "%016x;", rec.projection())
			}
		}
		pins[cfg.Name] = [2]uint64{full.Sum64(), proj.Sum64()}
	}
	tight, roomy := engineShapes[0], engineShapes[1]

	dir, err := os.MkdirTemp("", "engine-golden")
	if err != nil {
		return engineRun{err: err}
	}
	defer os.RemoveAll(dir)
	w := checkpoint.NewWriter(checkpoint.Config{Dir: dir, BudgetBytes: 8 << 10, EveryBytes: 256 << 10})
	rc := engineGoldenConfig(rig.RT, tight.params)
	rc.Checkpoint = w
	cell("tight seed=3 checkpointed", rc, tight.seed, faultinject.Plan{})
	if cellErr != nil {
		return engineRun{err: cellErr}
	}
	st := w.Stats()
	fmt.Fprintf(&got, " epochs=%d/%d snapwords=%d\n", st.Committed, st.Aborted, st.WordsCopied)

	// A flip script recorded under rt and replayed under major-inc, the one
	// replicating configuration that honours it.
	script := &policy.Script{}
	recorded, replayed := &budgetRecorder{}, &budgetRecorder{}
	rc = engineGoldenConfig(rig.RT, roomy.params)
	rc.Record, rc.Checkpoint = script, recorded
	recLine := cell("roomy seed=11 recorded", rc, roomy.seed, faultinject.Plan{})
	if cellErr != nil {
		return engineRun{err: cellErr}
	}
	marks := fnv.New64a()
	for _, e := range script.Events {
		fmt.Fprintf(marks, "%d,%v;", e.AllocMark, e.MajorFlip)
	}
	fmt.Fprintf(&got, " script=%d:%016x\n", script.Len(), marks.Sum64())
	rc = engineGoldenConfig(rig.MajorInc, roomy.params)
	rc.Replay, rc.Checkpoint = script, replayed
	repLine := cell("roomy seed=11 replayed", rc, roomy.seed, faultinject.Plan{})
	if cellErr != nil {
		return engineRun{err: cellErr}
	}
	got.WriteByte('\n')
	pins["replay"] = [2]uint64{recorded.fingerprint(recLine) ^ replayed.fingerprint(repLine),
		recorded.projection() ^ replayed.projection()}

	rc = engineGoldenConfig(rig.RT, tight.params)
	rc.Members = 4
	_, md, line, err := engineGoldenGroupCell(rc, tight.seed, 40)
	if err == nil {
		err = md.Verify()
	}
	if err != nil {
		return engineRun{err: fmt.Errorf("group: %v", err)}
	}
	fmt.Fprintf(&got, "rt tight seed=3 group4 %s\n", line)
	return engineRun{golden: got.String(), pins: pins}
}

// bigObjects keeps the cell's last few oversized objects alive.
type bigObjects struct{ slots [4]heap.Value }

func (b *bigObjects) VisitRoots(v core.RootVisitor) {
	for i := range b.slots {
		v(&b.slots[i])
	}
}

// engineGoldenCell runs one solo cell and renders its line. Every 2048th
// operation allocates an object too large for the nursery — a pointer array
// holding fresh nursery objects, or a byte buffer — directly in the old
// generation and mutates the previous one, so the scans meet mutator-owned
// spans and the log carries old-object stores of both kinds. An exhaustion
// error ends the operation it struck, is folded into the line, and the run
// goes on: the collector must resume from the failed unit of work.
func engineGoldenCell(rc rig.Config, seed int64, plan faultinject.Plan) (string, error) {
	rt, err := rig.New(rc)
	if err != nil {
		return "", err
	}
	m := rt.Mutator
	d := gctest.NewDriver(m, seed)
	inj := faultinject.New(m, plan)
	big := &bigObjects{}
	m.Roots.Register(big)
	audit := auditFlips(rt, rc.Checkpoint)

	errs := fnv.New64a()
	nerrs := 0
	nbig := 0
	oversized := func() error {
		k := nbig % len(big.slots)
		nbig++
		if nbig%2 == 0 {
			p, err := m.AllocBytes(28 << 10)
			if err != nil {
				return err
			}
			big.slots[k] = p
			m.SetByteRange(p, 100*nbig, []byte("engine golden"))
		} else {
			p, err := m.Alloc(heap.KindArray, 4<<10)
			if err != nil {
				return err
			}
			big.slots[k] = p
			for i := 0; i < 8; i++ {
				r, err := m.Alloc(heap.KindRef, 1)
				if err != nil {
					return err
				}
				m.Init(r, 0, heap.FromInt(int64(i)))
				m.Init(big.slots[k], i*64, r)
			}
		}
		// Read only now: the allocations above may have flipped.
		prev := big.slots[(k+len(big.slots)-1)%len(big.slots)]
		if prev != heap.Nil && m.H.HeaderOf(prev).Kind() == heap.KindArray {
			m.Set(prev, 3, big.slots[k])
			m.Set(prev, 64, heap.FromInt(int64(nbig)))
		} else if prev != heap.Nil {
			m.SetByte(prev, 7, byte(nbig))
		}
		return nil
	}
	d.Inject = func() error {
		if err := inj.Tick(); err != nil {
			return err
		}
		if d.Ops%2048 == 0 {
			return oversized()
		}
		return nil
	}

	for d.Ops < engineGoldenOps {
		if err := d.Step(engineGoldenOps - d.Ops); err != nil {
			if _, ok := core.AsOOM(err); !ok {
				return "", err
			}
			nerrs++
			fmt.Fprintf(errs, "%d:%v;", d.Ops, err)
			if nerrs > engineGoldenOps {
				return "", fmt.Errorf("run cannot make progress: %w", err)
			}
		}
	}
	if err := rt.Finish(); err != nil {
		return "", err
	}
	if err := audit.Check(); err != nil {
		return "", err
	}
	line := fmt.Sprintf("%s %s errs=%d:%016x", goldenState(m.Clock, rt.GC, d.Fingerprint()), engineCounters(rt.GC), nerrs, errs.Sum64())
	if err := phasesAgree(rt.GC.Pauses().Pauses, m.Clock); err != nil {
		return "", err
	}
	if err := d.Verify(); err != nil {
		return "", fmt.Errorf("shadow check: %w", err)
	}
	if err := core.AuditHeap(m); err != nil {
		return "", err
	}
	return line, nil
}

// engineGoldenGroupCell runs rc's members on one heap for the given number
// of rounds, finishes the run and renders the line. The shadow check is the
// caller's: it re-reads the heap through the mutators and charges the clock.
func engineGoldenGroupCell(rc rig.Config, seed int64, rounds int) (*rig.Runtime, *gctest.MultiDriver, string, error) {
	rt, err := rig.New(rc)
	if err != nil {
		return nil, nil, "", err
	}
	md, err := gctest.NewMultiDriver(rt.Group, seed)
	if err != nil {
		return nil, nil, "", err
	}
	audit := auditFlips(rt, rc.Checkpoint)
	for round := 0; round < rounds; round++ {
		if err := md.Step(60); err != nil {
			return nil, nil, "", err
		}
	}
	if err := rt.Finish(); err != nil {
		return nil, nil, "", err
	}
	if err := audit.Check(); err != nil {
		return nil, nil, "", err
	}
	line := fmt.Sprintf("%s %s wall=%d", goldenState(rt.Group.Clock, rt.GC, md.Fingerprint()),
		engineCounters(rt.GC), rt.Group.Elapsed())
	return rt, md, line, phasesAgree(rt.GC.Pauses().Pauses, rt.Group.Clock)
}

// auditFlips attaches a gctest.FlipAudit to rt's collector, in front of the
// checkpoint writer rt was built with, and returns it, or nil when the
// collector does not replicate.
func auditFlips(rt *rig.Runtime, ckpt core.Checkpointer) *gctest.FlipAudit {
	repl, ok := rt.GC.(*core.Replicating)
	if !ok {
		return nil
	}
	a := &gctest.FlipAudit{Next: ckpt}
	repl.SetCheckpointer(a)
	return a
}

// engineCounters renders the collector's counters and one hash over every
// recorded pause.
func engineCounters(gc core.Collector) string {
	f := fnv.New64a()
	for _, p := range gc.Pauses().Pauses {
		fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d;", p.At, p.Length, p.Kind, p.Sync, p.CopiedB, p.LogProcN)
	}
	st := gc.Stats()
	flips := fnv.New64a()
	for _, b := range st.FlipCopied {
		fmt.Fprintf(flips, "%d;", b)
	}
	return fmt.Sprintf("pausefnv=%016x stats=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d flips=%d:%016x",
		f.Sum64(), st.MinorCollections, st.MajorCollections, st.PauseCount, st.BytesCopiedMinor, st.BytesCopiedMajor,
		st.LogScanned, st.LogReapplied, st.FlipEntryUpdates, st.RootSlotUpdates, st.ForcedCompletion,
		st.NurseryExpansion, st.EmergencyCollections, len(st.FlipCopied), flips.Sum64())
}
