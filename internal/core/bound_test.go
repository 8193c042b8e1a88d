package core_test

import (
	"fmt"
	"math"
	"testing"

	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/rig"
	"repligc/internal/simtime"
	"repligc/internal/vm"
	"repligc/internal/workload"
)

// paperRT is the paper's 50 ms cell under rt: N = 0.2 MB, O = 1 MB,
// L = 100 KB — the configuration the repository benchmark builds.
func paperRT() core.Config {
	return core.Config{
		NurseryBytes:        200 << 10,
		MajorThresholdBytes: 1 << 20,
		CopyLimitBytes:      100 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
}

// holdsLargeArray is a MiniML program that keeps a 60 000-slot array — the
// size of the repository benchmark's Sort output array, allocated directly in
// the old generation — alive and mutated at both ends while it promotes
// several megabytes of lists, so that the major collection copies the array
// once per cycle.
const holdsLargeArray = `
let out = array 60000 0 in
fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
fun len l a = case l of [] => a | x :: r => len r (a + 1) in
fun loop k acc =
  if k = 0 then acc
  else (aset out k k; aset out (59999 - k) k;
        loop (k - 1) (acc + len (build 20000 []) 0)) in
let total = loop 16 0 in
print (itos total ^ " " ^ itos (aget out 3) ^ " " ^ itos (aget out 59996) ^ "\n")
`

// TestPauseCopyBound holds the copy term of the pause bound (DESIGN.md,
// "Pause bound"): no pause that runs under the work limit copies more than
// 2L and the one word a split rounds past it, whatever the size of the
// largest object.
// Stop-the-world pauses (forced completions, emergencies: Cause.Forced) have
// no budget and are exempt.
func TestPauseCopyBound(t *testing.T) {
	cfg := paperRT()
	bound := cfg.PauseCopyBound()
	check := func(t *testing.T, gc *core.Replicating) {
		t.Helper()
		worst, at, checked := int64(0), 0, 0
		for i, p := range gc.Pauses().Pauses {
			if p.Cause.Forced() {
				continue
			}
			checked++
			if p.CopiedB > worst {
				worst, at = p.CopiedB, i
			}
		}
		st := gc.Stats()
		if st.MajorCollections < 3 || checked == 0 {
			t.Fatalf("%d majors, %d budgeted pauses: the run is too small to say anything", st.MajorCollections, checked)
		}
		if st.LargestCopyBytes > bound {
			t.Errorf("one uninterrupted copy of %d B against the bound %d B", st.LargestCopyBytes, bound)
		}
		if worst > bound {
			t.Errorf("pause %d copied %d B against the bound 2L + a word = %d B", at, worst, bound)
		}
	}

	// Half of the torture driver's nursery survives, so under the paper's N
	// its minor collections leave the major nothing of 2L and no major ever
	// ends; N = 64 KB and O = 256 KB give it three or more. The large objects
	// are 26-52 KB (on both sides of N/2: some start in the nursery and are
	// copied by both generations, some are born old) under seed 1 and
	// 160-320 KB under seed 2.
	cfg.NurseryBytes, cfg.MajorThresholdBytes = 64<<10, 256<<10
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("gctest-seed%d", seed), func(t *testing.T) {
			m, gc := newRun(cfg, core.LogAllMutations)
			d := gctest.NewDriver(m, seed)
			d.LargeEvery, d.LargeWords = 4000, 3300
			if seed%2 == 0 {
				d.LargeEvery, d.LargeWords = 16000, 20000
			}
			for round := 0; round < 40; round++ {
				if err := d.Step(10000); err != nil {
					t.Fatal(err)
				}
			}
			if err := gc.FinishCycles(m); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			check(t, gc)
		})
	}
	t.Run("miniml-60000-slot-array", func(t *testing.T) {
		m, gc := newRun(paperRT(), core.LogAllMutations)
		prog, err := lang.Compile(m, holdsLargeArray)
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(m, prog)
		if err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		if got, want := machine.Output.String(), "320000 3 3\n"; got != want {
			t.Fatalf("program printed %q, want %q", got, want)
		}
		check(t, gc)
	})
}

// lazySieve is a MiniML program of the repository benchmark's Primes shape,
// summing the first count primes: a lazy stream of filters, each a closure
// that reaches its recursive bindings through ref cells, promoted and kept
// across several majors.
func lazySieve(count int) string {
	return fmt.Sprintf(lazySieveSource, count)
}

const lazySieveSource = `
fun from n = fn u => (n, from (n + 1)) in
fun filter p s = fn u =>
  let pr = s () in
  (case pr of (x, rest) =>
    if p x then (x, filter p rest)
    else (filter p rest) ()) in
fun sieve s = fn u =>
  let pr = s () in
  (case pr of (x, rest) =>
    (x, sieve (filter (fn y => (y mod x) <> 0) rest))) in
fun take k s acc =
  if k = 0 then acc
  else let pr = s () in
       (case pr of (x, rest) => take (k - 1) rest (acc + x)) in
print ("primes-sum " ^ itos (take %d (sieve (from 2)) 0) ^ "\n")
`

// tortureGroup4 runs four torture drivers on one heap for so many rounds of
// 80-operation quanta, the shape of the repository benchmark's group4;
// finishing the run is the caller's.
func tortureGroup4(t *testing.T, cfg core.Config, rounds int) (*core.Group, *core.Replicating, *gctest.MultiDriver) {
	t.Helper()
	h := heap.New(heap.Config{NurseryBytes: cfg.NurseryBytes, NurseryCapBytes: 32 * cfg.NurseryBytes, OldSemiBytes: 16 << 20})
	g := core.NewGroup(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations, 4)
	gc := core.NewReplicating(h, cfg)
	g.AttachGC(gc)
	md, err := gctest.NewMultiDriver(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		if err := md.Step(80); err != nil {
			t.Fatal(err)
		}
	}
	return g, gc, md
}

// TestPauseFlipBound holds the flip term of the pause bound (DESIGN.md, "Pause
// bound"): in a pause that runs under the work limit, copying, scanning and
// the flips together take no longer than copying PauseCopyBound() bytes does.
// Forced pauses have no budget and are exempt, and so is a pause whose flip
// the gate let through although it did not fit (Pause.Overrun, counted by
// GCStats.Overruns).
func TestPauseFlipBound(t *testing.T) {
	cost := simtime.Default1993()
	// worstOf returns the budgeted pause of the collector's record that spent
	// longest copying and flipping, and its position.
	spent := func(p simtime.Pause) simtime.Duration {
		return p.PhaseTime[simtime.PhaseCopy] + p.PhaseTime[simtime.PhaseFlip]
	}
	worstOf := func(t *testing.T, gc *core.Replicating) (int, simtime.Pause) {
		t.Helper()
		at, worst, overruns := 0, simtime.Pause{}, 0
		for i, p := range gc.Pauses().Pauses {
			if p.Overrun > 0 {
				overruns++
			}
			if !p.Unbudgeted() && spent(p) > spent(worst) {
				at, worst = i, p
			}
		}
		st := gc.Stats()
		if st.MajorCollections == 0 || st.Deferrals == 0 {
			t.Fatalf("%d majors, %d flips deferred: the run never meets the gate", st.MajorCollections, st.Deferrals)
		}
		if overruns != st.Overruns {
			t.Errorf("%d pauses are marked as flip overruns, the collector counted %d", overruns, st.Overruns)
		}
		return at, worst
	}

	t.Run("miniml-lazy-sieve", func(t *testing.T) {
		cfg := paperRT()
		m, gc := newRun(cfg, core.LogAllMutations)
		prog, err := lang.Compile(m, lazySieve(1200))
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(m, prog)
		if err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		if got, want := machine.Output.String(), "primes-sum 5450709\n"; got != want {
			t.Fatalf("program printed %q, want %q", got, want)
		}
		if st := gc.Stats(); st.MajorCollections < 3 {
			t.Fatalf("%d majors: the run is too small to say anything", st.MajorCollections)
		}
		// Every flip that does not fit the pause it could have run in fits the
		// next one: the program's minor collections are small.
		if st := gc.Stats(); st.Overruns != 0 || st.Deferrals >= st.MajorCollections {
			t.Errorf("%d of %d major flips deferred, %d overruns: want some flips to fit at once and none to be let through", st.Deferrals, st.MajorCollections, st.Overruns)
		}
		if at, w := worstOf(t, gc); spent(w) > cfg.PauseBoundTime(cost) {
			t.Errorf("pause %d spent %v copying and %v flipping against the bound %v",
				at, w.PhaseTime[simtime.PhaseCopy], w.PhaseTime[simtime.PhaseFlip], cfg.PauseBoundTime(cost))
		}
	})

	// Four members on one heap, under an N and O that let the torture driver's
	// majors end (TestPauseCopyBound says why). O = 384 KB makes the second
	// major's flip worklist the size of the repository benchmark's group4
	// (15-16 thousand entries before hidden holders, half of that after); it
	// is still active when the driver stops, so it flips in FinishCycles, as
	// the benchmark's one major does. The first major's flip finds every
	// pause full — half of each 64 KB nursery survives — and is let through
	// at the deferral cap: the one overrun, and inside the bound anyway.
	t.Run("gctest-group4", func(t *testing.T) {
		cfg := paperRT()
		cfg.NurseryBytes, cfg.MajorThresholdBytes = 64<<10, 384<<10
		g, gc, md := tortureGroup4(t, cfg, 400)
		if err := g.Run(0, gc.FinishCycles); err != nil {
			t.Fatal(err)
		}
		if err := md.Verify(); err != nil {
			t.Fatal(err)
		}
		at, w := worstOf(t, gc)
		if bound, stopped := cfg.PauseBoundTime(cost), g.GroupPauses().Max(); spent(w) > bound || stopped > bound {
			t.Errorf("pause %d spent %v copying and %v flipping, and everyone was stopped for %v, against the bound %v (%d entries re-pointed in the run's %d majors)",
				at, w.PhaseTime[simtime.PhaseCopy], w.PhaseTime[simtime.PhaseFlip], stopped, bound, gc.Stats().FlipEntryUpdates, gc.Stats().MajorCollections)
		}
	})
}

// deepRecursion is a MiniML program whose root set is its stack: a list built
// by non-tail recursion, 8 000 frames deep while its cells are allocated, so
// that a completion attempt's passes over the roots take several milliseconds.
const deepRecursion = `
fun build n = if n = 0 then [] else n :: build (n - 1) in
fun len l a = case l of [] => a | x :: r => len r (a + 1) in
fun loop k acc = if k = 0 then acc else loop (k - 1) (acc + len (build 8000) 0) in
print (itos (loop 30 0) ^ "\n")
`

// storeHeavyServing is a serving spec of the repository benchmark's shape —
// interactive requests beside a bursty batch cohort that retains half of what
// it allocates and stores through the barrier 48 times a request — at two and
// a half times its rates: minor collections that fill their copy budget and
// carry a log of a few thousand entries besides.
func storeHeavyServing() *workload.Spec {
	return &workload.Spec{
		Name: "store-heavy", Seed: 7, DurationMs: 12000,
		Cohorts: []workload.Cohort{{
			Name:    "interactive",
			Arrival: workload.Arrival{Law: workload.LawPoisson, RatePerSec: 1000},
			Profile: workload.Profile{ObjsPerReq: 6, ObjWords: 16, RetainPct: 0.25, SessionWords: 64, SessionReqs: 8, Mutations: 12, WorkSteps: 2000},
			SLO:     workload.SLO{TargetMs: 2, DeadlineMs: 10},
		}, {
			Name: "batch-ingest",
			Arrival: workload.Arrival{Law: workload.LawGamma, RatePerSec: 100, Shape: 0.7,
				Burst: &workload.Burst{OnMs: 200, OffMs: 100, OffFactor: 4}},
			Profile: workload.Profile{ObjsPerReq: 40, ObjWords: 64, RetainPct: 0.5, SessionWords: 256, SessionReqs: 4, Mutations: 48, WorkSteps: 20000},
			SLO:     workload.SLO{TargetMs: 20, DeadlineMs: 100},
		}},
	}
}

// TestPauseBound holds the pause bound in all (DESIGN.md, "Pause bound"): a
// pause of an rt run that had a budget — not forced, no checkpoint writer
// attached — and is not counted as an overrun is no longer than copying
// PauseCopyBound() bytes takes, whatever it spent the time on: log replay,
// root passes, copying, scanning and both flips draw on the one budget. The
// three runs are the three terms the copy and flip tests leave out: a log far
// longer than a pause (the zero-filled array's 60 000 entries, replayed in
// the program's first pause), a log tail behind a full copy budget, and root
// passes of several milliseconds.
func TestPauseBound(t *testing.T) {
	cfg := paperRT()
	bound := cfg.PauseBoundTime(simtime.Default1993())
	check := func(t *testing.T, gc core.Collector) {
		t.Helper()
		worst, at, checked, overruns := simtime.Duration(0), 0, 0, 0
		for i, p := range gc.Pauses().Pauses {
			if p.Overrun > 0 {
				overruns++
			}
			if p.Unbudgeted() {
				continue
			}
			checked++
			if p.Length > worst {
				worst, at = p.Length, i
			}
		}
		st := gc.Stats()
		if st.MajorCollections == 0 || checked < 100 {
			t.Fatalf("%d majors, %d budgeted pauses: the run is too small to say anything", st.MajorCollections, checked)
		}
		if overruns != st.Overruns {
			t.Errorf("%d pauses are marked as overruns, the collector counted %d", overruns, st.Overruns)
		}
		t.Logf("longest of %d budgeted pauses %v, %d completions deferred, %d overran, largest backlog %d entries", checked, worst, st.Deferrals, st.Overruns, logBacklog(gc))
		if worst > bound {
			p := gc.Pauses().Pauses[at]
			t.Errorf("pause %d is %v long against the bound %v (%d B copied, %d log entries, %d root slots and %d worklist slots flipped)",
				at, worst, bound, p.CopiedB, p.LogProcN, p.RootSlots, p.FlipEntries)
		}
	}
	program := func(source, want string) func(*testing.T) {
		return func(t *testing.T) {
			m, gc := newRun(cfg, core.LogAllMutations)
			prog, err := lang.Compile(m, source)
			if err != nil {
				t.Fatal(err)
			}
			machine := vm.New(m, prog)
			if err := machine.Run(); err != nil {
				t.Fatal(err)
			}
			if err := gc.FinishCycles(m); err != nil {
				t.Fatal(err)
			}
			if got := machine.Output.String(); got != want {
				t.Fatalf("program printed %q, want %q", got, want)
			}
			check(t, gc)
		}
	}
	// ring keeps the last 64 of a stream of objects of one kind and size alive,
	// with a small record of garbage between them: each object outlives
	// several nurseries, so minor collections copy nearly all of one across
	// pauses and each pause's deadline falls inside an object's copy or scan.
	ring := func(kind heap.Kind, n int) func(*testing.T) {
		return func(t *testing.T) {
			m, gc := newRun(cfg, core.LogAllMutations)
			roots := &growingRoots{slots: make([]heap.Value, 64)}
			m.Roots.Register(roots)
			for i := 0; i < 3000; i++ {
				p := m.MustAlloc(kind, n)
				if kind.HasPointers() {
					m.Init(p, i%n, heap.FromInt(int64(i)))
				}
				roots.slots[i%len(roots.slots)] = p
				m.MustAlloc(heap.KindRecord, 2)
			}
			if err := gc.FinishCycles(m); err != nil {
				t.Fatal(err)
			}
			check(t, gc)
		}
	}
	// A pointer-free object's scan stops at the deadline and resumes: charged
	// in one piece, one of about 20 KB whose scan began just before the
	// deadline ran 5 ms past it.
	t.Run("bytes-20kb-scan", ring(heap.KindBytes, 20000))
	// Every copy that would cross the deadline splits there: one of 19.2 KB,
	// under the L/4 that was once copied whole, ran nearly 5 ms past it.
	t.Run("arrays-19kb-copy", ring(heap.KindArray, 2400))
	t.Run("miniml-60000-entry-log", program(holdsLargeArray, "320000 3 3\n"))
	t.Run("miniml-deep-recursion", program(deepRecursion, "240000\n"))
	t.Run("store-heavy-serving", func(t *testing.T) {
		spec := storeHeavyServing()
		reqs, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := workload.NewRuntime(spec, rig.Config{Collector: rig.RT})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Serve(rt, reqs, rig.RT.Name, workload.ServeOptions{}); err != nil {
			t.Fatal(err)
		}
		check(t, rt.GC)
	})
}

// budgetOffers is a checkpointer that writes nothing: it records the budget
// each pause offers it, by pause number.
type budgetOffers map[int]int

func (b budgetOffers) PauseCheckpoint(m *core.Mutator, p core.CheckpointPoint) bool {
	b[m.GC.Stats().PauseCount] = p.BudgetWords
	return false
}

// TestEmergencyOffersCheckpointNoBudget holds the checkpoint to the pause's
// one budget: an emergency pause has none, whether it was entered as one
// (CollectEmergency) or escalated into one on low headroom, so it offers the
// writer no limit. The headroom is squeezed again and again under rt, which
// escalates pauses of both kinds.
func TestEmergencyOffersCheckpointNoBudget(t *testing.T) {
	rt, err := rig.New(rig.Config{Collector: rig.RT, OldSemiBytes: 4 << 20, NurseryCapBytes: 48 << 10,
		Params: rig.Params{NBytes: 32 << 10, OBytes: 64 << 10, LBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	gc, offers := rt.GC.(*core.Replicating), budgetOffers{}
	gc.SetCheckpointer(offers)
	var plan faultinject.Plan
	for at := int64(1500); at < 20000; at += 2500 {
		plan.Events = append(plan.Events, faultinject.Event{AtOp: at, Action: faultinject.ShrinkOld, Arg: at % 3 * 1500},
			faultinject.Event{AtOp: at + 180, Action: faultinject.RestoreHeadroom})
	}
	d := gctest.NewDriver(rt.Mutator, 3)
	d.Inject = faultinject.New(rt.Mutator, plan).Tick
	for d.Ops < 20000 {
		if err := d.Step(20000 - d.Ops); err != nil {
			if _, ok := core.AsOOM(err); !ok {
				t.Fatal(err)
			}
		}
	}
	emergencies := 0
	for i, p := range gc.Pauses().Pauses {
		if words, ok := offers[i+1]; ok && p.Cause.Emergency() {
			emergencies++
			if words != math.MaxInt {
				t.Errorf("emergency pause %d offered the checkpoint %d words; want no limit", i, words)
			}
		}
	}
	if emergencies == 0 {
		t.Fatal("no emergency pause: the test does not reach the case")
	}
	t.Logf("%d emergency pauses of %d, %d forced completions", emergencies, len(gc.Pauses().Pauses), gc.Stats().ForcedCompletion)
}

// chargeEvery is a checkpointer that writes nothing and charges the clock
// in every nth pause it is offered, the way a writer copying its turn's
// words does; it notes those pauses by number.
type chargeEvery struct {
	n       int
	charged map[int]simtime.Duration
}

func (c chargeEvery) PauseCheckpoint(m *core.Mutator, p core.CheckpointPoint) bool {
	if pause := m.GC.Stats().PauseCount; pause%c.n == 0 {
		c.charged[pause] = m.Cost.CopyWord * 100
		m.Clock.Charge(simtime.AcctCheckpoint, c.charged[pause])
	}
	return false
}

// TestCheckpointSpanOnlyWhenCharged: a pause counts a checkpoint span only
// when the writer's turn took time, and that span holds exactly its time; a
// turn that charged nothing leaves the pause's phases as they were. The
// checkpoint's own commit pause is held to the same.
func TestCheckpointSpanOnlyWhenCharged(t *testing.T) {
	rt, err := rig.New(rig.Config{Collector: rig.RT, OldSemiBytes: 4 << 20, NurseryCapBytes: 48 << 10,
		Params: rig.Params{NBytes: 32 << 10, OBytes: 64 << 10, LBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	gc, writer := rt.GC.(*core.Replicating), chargeEvery{n: 3, charged: map[int]simtime.Duration{}}
	gc.SetCheckpointer(writer)
	d := gctest.NewDriver(rt.Mutator, 3)
	if err := d.Step(20000); err != nil {
		t.Fatal(err)
	}
	gc.CheckpointPause(rt.Mutator, func() {})
	gc.CheckpointPause(rt.Mutator, func() { rt.Mutator.Clock.Charge(simtime.AcctCheckpoint, 7) })
	pauses := gc.Pauses().Pauses
	writer.charged[len(pauses)] = 7
	for i, p := range pauses {
		want, spans := writer.charged[i+1], 0
		if want > 0 {
			spans = 1
		}
		if got := p.PhaseSpans[simtime.PhaseCheckpoint]; got != spans || p.PhaseTime[simtime.PhaseCheckpoint] != want {
			t.Errorf("pause %d: %d checkpoint spans of %v, want %d of %v", i+1, got, p.PhaseTime[simtime.PhaseCheckpoint], spans, want)
		}
	}
	if len(writer.charged) < 2 {
		t.Fatalf("the writer charged %d pauses of %d: the test does not reach the case", len(writer.charged), len(pauses))
	}
}
