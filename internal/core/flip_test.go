package core_test

import (
	"reflect"
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/vm"
)

// flipConfig is splitConfig with an L under which the immortal stream's
// completion attempts sometimes fit what is left of their pause and sometimes
// do not: the budget is 2L = 12 KB of copying, 3 ms, against a few hundred
// root slots and a worklist of up to a few hundred slots.
func flipConfig() core.Config {
	cfg := splitConfig()
	cfg.CopyLimitBytes = 6 << 10
	return cfg
}

// flipVariants are the collector options the pause bound's mechanisms — hidden
// holders, the admission gate, the log meter — must compose with;
// TestFlipMeteringUnderReplay has the replayed script.
func flipVariants() []struct {
	name string
	cfg  core.Config
} {
	with := func(f func(*core.Config)) core.Config {
		cfg := flipConfig()
		f(&cfg)
		return cfg
	}
	return []struct {
		name string
		cfg  core.Config
	}{
		{"rt", flipConfig()},
		{"defer-mutable-copies", with(func(c *core.Config) { c.DeferMutableCopies = true })},
		{"lazy-log", with(func(c *core.Config) { c.LazyLogProcessing = true })},
		{"micro-pauses", with(func(c *core.Config) { c.InterleavedTaxPermille = 1500 })},
		{"naive-replay", with(func(c *core.Config) { c.NaiveReplay = true })},
		{"recorded", with(func(c *core.Config) { c.Record = &policy.Script{} })},
	}
}

// sameVolume fails unless two runs copied the same bytes in both generations
// over the same number of majors.
func sameVolume(t *testing.T, got, want core.GCStats, wantIs string) {
	t.Helper()
	if got.BytesCopiedMinor != want.BytesCopiedMinor || got.BytesCopiedMajor != want.BytesCopiedMajor || got.MajorCollections != want.MajorCollections {
		t.Errorf("copied %d + %d B over %d majors, %s %d + %d B over %d", got.BytesCopiedMinor, got.BytesCopiedMajor, got.MajorCollections,
			wantIs, want.BytesCopiedMinor, want.BytesCopiedMajor, want.MajorCollections)
	}
}

// TestHiddenHolderDifferential runs one immortal, collection-phased operation
// stream with the hidden-holder rule on and off: a slot of a mutable object's
// major replica pointing at its referent's replica at once, instead of waiting
// on the flip worklist, must change nothing but the worklist — same graph,
// same bytes copied in both generations, same majors, strictly fewer slots
// re-pointed at flips.
func TestHiddenHolderDifferential(t *testing.T) {
	for _, v := range flipVariants() {
		t.Run(v.name, func(t *testing.T) {
			// The gate is off on both sides: how many pauses a flip waits
			// moves nothing the stream can see, but this test is about one
			// mechanism.
			queued, queuedStats, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { gc.SetMetering(false, false, true) })
			hidden, st, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { gc.SetMetering(true, false, true) })
			if queuedStats.MajorCollections < 3 {
				t.Fatalf("%d majors: the stream is too small to say anything", queuedStats.MajorCollections)
			}
			if hidden != queued {
				t.Errorf("graph %016x, with every mutable reference queued it is %016x", hidden, queued)
			}
			sameVolume(t, st, queuedStats, "with every mutable reference queued")
			// A hidden slot takes its referent's replica when there is one; it
			// does not make one early, so under deferred copying the log work
			// is the same.
			if st.LogReapplied != queuedStats.LogReapplied {
				t.Errorf("%d log entries reapplied, %d with every mutable reference queued", st.LogReapplied, queuedStats.LogReapplied)
			}
			if st.FlipEntryUpdates >= queuedStats.FlipEntryUpdates {
				t.Errorf("%d flip entries re-pointed, %d with every mutable reference queued: want strictly fewer", st.FlipEntryUpdates, queuedStats.FlipEntryUpdates)
			}
			t.Logf("flip entries %d -> %d, largest worklist %d -> %d", queuedStats.FlipEntryUpdates, st.FlipEntryUpdates,
				queuedStats.LargestFlipWorklist, st.LargestFlipWorklist)
		})
	}
}

// TestFlipGateDifferential runs the same stream with the admission gate off
// and on: a completion attempt — a minor collection's, a major flip — that
// waits for a pause it fits must leave the same graph — and, the stream being
// immortal, the same bytes copied — however many pauses it waited. Under rt
// the gate must have met both cases, attempts that fitted and attempts that
// waited; under a replayed script it must never act.
func TestFlipGateDifferential(t *testing.T) {
	for _, v := range flipVariants() {
		t.Run(v.name, func(t *testing.T) {
			ungated, ungatedStats, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { gc.SetMetering(true, false, true) })
			gated, st, _ := immortalStream(t, v.cfg, func(*core.Replicating) {})
			if gated != ungated {
				t.Errorf("graph %016x, with no attempt ever deferred it is %016x", gated, ungated)
			}
			sameVolume(t, st, ungatedStats, "with no attempt ever deferred")
			if ungatedStats.Deferrals != 0 || ungatedStats.Overruns != 0 {
				t.Errorf("the gate is off and still deferred %d attempts and let %d through", ungatedStats.Deferrals, ungatedStats.Overruns)
			}
			if completions := st.MinorCollections + st.MajorCollections; st.Deferrals == 0 || st.Deferrals >= completions {
				t.Errorf("%d deferrals for %d completions: the stream does not meet the gate both ways", st.Deferrals, completions)
			}
			t.Logf("%d minors, %d majors, %d attempts deferred, %d let through, %d -> %d pauses", st.MinorCollections, st.MajorCollections,
				st.Deferrals, st.Overruns, ungatedStats.PauseCount, st.PauseCount)
		})
	}
}

// TestLogMeterDifferential runs the same stream with the log meter off — every
// pause replays the whole log, as the paper's collector does — and on: a log
// replayed over as many pauses as its entries need must leave the same graph,
// the same bytes copied and the same majors, with pauses that left entries
// behind on the way: the 3 ms budget is shorter than the 4 200 entries the
// stream's array born old is initialised with.
func TestLogMeterDifferential(t *testing.T) {
	for _, v := range flipVariants() {
		t.Run(v.name, func(t *testing.T) {
			var wholeGC, meteredGC *core.Replicating
			whole, wholeStats, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { wholeGC = gc; gc.SetMetering(true, true, false) })
			metered, st, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { meteredGC = gc })
			if metered != whole {
				t.Errorf("graph %016x, with the log replayed whole in every pause it is %016x", metered, whole)
			}
			sameVolume(t, st, wholeStats, "with the log replayed whole in every pause")
			// Unmetered, only a pause that ends inside a split copy leaves the
			// log unread, and then only what one pause's stores appended.
			backlog, wholeBacklog := logBacklog(meteredGC), logBacklog(wholeGC)
			if backlog <= 2*wholeBacklog {
				t.Errorf("a pause left at most %d entries behind with the meter on, %d with it off: the log never outran the meter", backlog, wholeBacklog)
			}
			t.Logf("largest backlog %d entries, %d -> %d pauses", backlog, wholeStats.PauseCount, st.PauseCount)
		})
	}
}

// logBacklog is the most log entries one of gc's pauses left unprocessed.
func logBacklog(gc core.Collector) int64 { return gc.Pauses().Digest(0).LogBacklog }

// TestFlipGateProgramOutput runs the lazy sieve, some of whose flips the gate
// defers, with the gate off and on: same output. (The number of majors
// is the schedule's: a flip that waits ends its cycle later.) The recorded
// flip script shows what a deferral buys the flip: every nursery cycle spans
// N of allocation except the one after a deferral, which is the paper's A
// (the 64 KB floor, a third of N) and ends in a pause with little else in it.
func TestFlipGateProgramOutput(t *testing.T) {
	run := func(gate bool) (string, core.GCStats, int) {
		cfg := paperRT()
		cfg.Record = &policy.Script{}
		m, gc := newRun(cfg, core.LogAllMutations)
		gc.SetMetering(true, gate, true)
		prog, err := lang.Compile(m, lazySieve(900))
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
		short, last := 0, int64(0)
		for _, e := range cfg.Record.Events {
			if e.AllocMark-last < cfg.NurseryBytes/2 {
				short++
			}
			last = e.AllocMark
		}
		return machine.Output.String(), *gc.Stats(), short
	}
	ungated, ungatedStats, ungatedShort := run(false)
	gated, st, short := run(true)
	if gated != ungated || gated != "primes-sum 2935471\n" {
		t.Errorf("gated: %q; never deferred: %q", gated, ungated)
	}
	if st.Deferrals == 0 || ungatedStats.Deferrals != 0 {
		t.Errorf("%d flips deferred with the gate on, %d with it off", st.Deferrals, ungatedStats.Deferrals)
	}
	if short != st.Deferrals || ungatedShort != 0 {
		t.Errorf("%d nursery cycles shorter than N/2 after %d deferrals (%d with the gate off): want one short cycle a deferral", short, st.Deferrals, ungatedShort)
	}
}

// TestFlipMeteringUnderReplay records a flip script under rt and replays it
// under major-inc, the replicating configuration that honours one. A replayed
// run collects at the script's allocation marks and completes every
// collection in its pause, so even this mortal torture stream copies the same
// bytes whatever the flip worklist holds: hiding must move nothing but the
// slots re-pointed, and the gate and the log meter — the script decides, every
// replayed collection is forced — nothing at all.
func TestFlipMeteringUnderReplay(t *testing.T) {
	run := func(cfg core.Config, hiding, gate, log bool) (uint64, core.GCStats, simtime.Duration) {
		m, gc := newRun(cfg, core.LogAllMutations)
		gc.SetMetering(hiding, gate, log)
		d := gctest.NewDriver(m, 5)
		for round := 0; round < 160; round++ {
			if err := d.Step(400); err != nil {
				t.Fatal(err)
			}
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
		return d.Fingerprint(), *gc.Stats(), m.Clock.Now()
	}
	script := &policy.Script{}
	rec := tortureConfig(true, true)
	// L = 3N: the minor completes in one pause and leaves the major most of
	// the budget, so that majors end while the stream runs.
	rec.MajorThresholdBytes, rec.CopyLimitBytes = 64<<10, 96<<10
	rec.Record = script
	want, recStats, _ := run(rec, true, true, true)
	if recStats.MajorCollections < 3 {
		t.Fatalf("%d majors recorded: the run is too small to say anything", recStats.MajorCollections)
	}
	replay := rec
	replay.IncrementalMinor, replay.Record, replay.Replay = false, nil, script
	queued, queuedStats, _ := run(replay, false, false, false)
	hidden, hiddenStats, hiddenNow := run(replay, true, false, false)
	gated, gatedStats, gatedNow := run(replay, true, true, true)
	if queued != want || hidden != want || gated != want {
		t.Errorf("graphs %016x (every mutable reference queued), %016x (hidden holders), %016x (and the gate); recorded %016x", queued, hidden, gated, want)
	}
	sameVolume(t, hiddenStats, queuedStats, "with every mutable reference queued")
	if hiddenStats.FlipEntryUpdates >= queuedStats.FlipEntryUpdates {
		t.Errorf("%d flip entries re-pointed, %d with every mutable reference queued: want strictly fewer", hiddenStats.FlipEntryUpdates, queuedStats.FlipEntryUpdates)
	}
	gatedStats.FlipCopied, hiddenStats.FlipCopied = nil, nil // the one field == cannot compare; a function of the bytes copied
	if !reflect.DeepEqual(gatedStats, hiddenStats) || gatedNow != hiddenNow || gatedStats.Deferrals != 0 || gatedStats.Overruns != 0 {
		t.Errorf("the gate and the log meter moved a replayed run:\n on  %+v at %v\n off %+v at %v", gatedStats, gatedNow, hiddenStats, hiddenNow)
	}
}

// TestDeferredFlipAlwaysEnds pins the two ways out of the gate, without which
// a cycle could wait for ever: a completion attempt whose cost alone is over
// the budget runs at once, to the end, and one that has been put off the fixed
// number of times in a row runs regardless. Both are counted, and mark their
// pause.
func TestDeferredFlipAlwaysEnds(t *testing.T) {
	// L = 1 KB: one pass over the roots costs more than copying 2 KB takes, so
	// no attempt of either generation can ever fit and none waits: every pause
	// that flips is an overrun, and ends the cycle it met.
	t.Run("worklist-larger-than-the-budget", func(t *testing.T) {
		cfg := tortureConfig(true, true)
		cfg.CopyLimitBytes = 1 << 10
		m, gc := newRun(cfg, core.LogAllMutations)
		d := gctest.NewDriver(m, 1)
		for round := 0; round < 30; round++ {
			if err := d.Step(2000); err != nil {
				t.Fatal(err)
			}
			if err := core.AuditHeap(m); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
		marked, flipped := 0, 0
		for i, p := range gc.Pauses().Pauses {
			if p.Overrun > 0 {
				marked++
			}
			if p.RootSlots > 0 && !p.Forced {
				flipped++
				if p.Overrun == 0 {
					t.Errorf("pause %d redirected %d root slots in %v and is not marked as an overrun", i, p.RootSlots, p.Length)
				}
			}
		}
		st := gc.Stats()
		if st.MajorCollections == 0 || st.Deferrals != 0 || marked != flipped || st.Overruns < marked+st.MajorCollections-1 {
			t.Errorf("%d minors and %d majors, %d attempts let through in %d marked pauses of %d that flipped, %d deferred: want every attempt let through at once",
				st.MinorCollections, st.MajorCollections, st.Overruns, marked, flipped, st.Deferrals)
		}
		if st.ForcedCompletion != 0 {
			t.Errorf("%d forced completions: a root set longer than the budget must end its cycle as an overrun, in the pause that meets it", st.ForcedCompletion)
		}
	})
	// Four torture drivers under the paper's L and a 64 KB nursery of which
	// half survives: the first major's flip would fit an empty pause, and
	// every pause the running mutators cause is full, so only the cap ends the
	// cycle before FinishCycles would.
	t.Run("every-pause-full", func(t *testing.T) {
		cfg := paperRT()
		cfg.NurseryBytes, cfg.MajorThresholdBytes = 64<<10, 256<<10
		g, gc, md := tortureGroup4(t, cfg, 400)
		if st := gc.Stats(); st.MajorCollections != 1 || st.Overruns != 1 || st.Deferrals < core.MaxFlipDeferrals {
			t.Errorf("%d majors ended while the mutators ran, %d flips let through after %d deferrals: want the cap to have ended one cycle", st.MajorCollections, st.Overruns, st.Deferrals)
		}
		if err := g.Run(0, gc.FinishCycles); err != nil {
			t.Fatal(err)
		}
		if err := md.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLogOutrunsTheMeter is the progress property of the log meter: when every
// nursery cycle appends more entries than a pause replays, the minor collection
// can never reach its completion attempt by itself, and the cap on the pauses
// one minor collection spans (here 24, SetMinorLimits) ends it — one forced,
// marked pause — with the backlog bounded by what that many cycles log. The
// mutator stores a fresh nursery pointer into forty distinct slots of
// an old array for every small object it allocates; the 1 ms budget of
// L = 2 KB replays at most a thousand entries, the A = 1 KB the pause grants
// lets the mutator log some 1 700 more.
func TestLogOutrunsTheMeter(t *testing.T) {
	cfg := core.Config{
		NurseryBytes:     8 << 10,
		CopyLimitBytes:   2 << 10,
		IncrementalMinor: true,
		IncrementalMajor: true,
	}
	const maxMinorPauses = 24
	m, gc := newRun(cfg, core.LogAllMutations)
	gc.SetMinorLimits(0, maxMinorPauses)
	const slots, perAlloc, allocs = 8192, 40, 20000
	var want [slots]int64                      // the record each slot was last pointed at
	old, err := m.Alloc(heap.KindArray, slots) // above N/2: born old
	if err != nil {
		t.Fatal(err)
	}
	table := m.PushHandle(old)
	for i := 0; i < allocs; i++ {
		p, err := m.Alloc(heap.KindRecord, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.Init(p, 0, heap.FromInt(int64(i)))
		cell := m.PushHandle(p)
		for j := 0; j < perAlloc; j++ {
			k := (i*perAlloc + j) % slots
			m.Set(m.HandleVal(table), k, m.HandleVal(cell))
			want[k] = int64(i)
		}
		m.PopHandles(cell)
	}
	if err := gc.FinishCycles(m); err != nil {
		t.Fatal(err)
	}
	if err := core.AuditHeap(m); err != nil {
		t.Fatal(err)
	}
	for k, i := range want {
		if got := m.Get(m.Get(m.HandleVal(table), k), 0); got != heap.FromInt(i) {
			t.Fatalf("slot %d leads to record %v, want %d", k, got, i)
		}
	}
	st, forced := gc.Stats(), 0
	for _, p := range gc.Pauses().Pauses {
		if p.Forced {
			forced++
		}
	}
	if st.ForcedCompletion == 0 || forced != st.ForcedCompletion || st.EmergencyCollections != 0 {
		t.Errorf("%d forced completions in %d marked pauses, %d emergencies: want the pause cap to have ended cycles, and nothing worse", st.ForcedCompletion, forced, st.EmergencyCollections)
	}
	// A cycle's first pause finds at most one entry a slot (the barrier
	// coalesces the rest), and each of its maxMinorPauses later ones what the
	// two-word records of A = L/2 of allocation stored.
	perCycle := int64(slots) + int64(maxMinorPauses+1)*(cfg.CopyLimitBytes/2/(2*heap.BytesPerWord))*perAlloc
	backlog := logBacklog(gc)
	if backlog == 0 || backlog > perCycle {
		t.Errorf("a pause left at most %d log entries behind: want some, and no more than one cycle's %d", backlog, perCycle)
	}
	t.Logf("%d minors over %d pauses, %d forced, largest backlog %d entries", st.MinorCollections, st.PauseCount, st.ForcedCompletion, backlog)
}
