package core_test

import (
	"reflect"
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/lang"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/vm"
)

// flipConfig is splitConfig with an L under which the immortal stream's major
// flips sometimes fit what is left of their pause and sometimes do not: the
// budget is 2L = 8 KB of copying, 2 ms, against a few hundred root slots and
// a worklist of up to a few hundred slots.
func flipConfig() core.Config {
	cfg := splitConfig()
	cfg.CopyLimitBytes = 6 << 10
	return cfg
}

// flipVariants are the collector options the two halves of flip metering must
// compose with; TestFlipMeteringUnderReplay has the replayed script.
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
		{"bounded-log", with(func(c *core.Config) { c.BoundedLogProcessing = true })},
		{"micro-pauses", with(func(c *core.Config) { c.BoundedLogProcessing, c.InterleavedTaxPermille = true, 1500 })},
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
			queued, queuedStats, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { gc.SetFlipMetering(false, false) })
			hidden, st, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { gc.SetFlipMetering(true, false) })
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

// TestFlipGateDifferential runs the same stream with the flip gate off and
// on: a flip that waits for a pause it fits must leave the same graph — and,
// the stream being immortal, the same bytes copied — however many short
// cycles it waited. Under rt the gate must have met both cases, flips that
// fitted and flips that waited; under a replayed script it must never act.
func TestFlipGateDifferential(t *testing.T) {
	for _, v := range flipVariants() {
		t.Run(v.name, func(t *testing.T) {
			ungated, ungatedStats, _ := immortalStream(t, v.cfg, func(gc *core.Replicating) { gc.SetFlipMetering(true, false) })
			gated, st, _ := immortalStream(t, v.cfg, func(*core.Replicating) {})
			if gated != ungated {
				t.Errorf("graph %016x, with flips never deferred it is %016x", gated, ungated)
			}
			sameVolume(t, st, ungatedStats, "with flips never deferred")
			if ungatedStats.FlipDeferrals != 0 || ungatedStats.FlipOverruns != 0 {
				t.Errorf("the gate is off and still deferred %d flips and let %d through", ungatedStats.FlipDeferrals, ungatedStats.FlipOverruns)
			}
			if st.FlipDeferrals == 0 || st.FlipDeferrals >= st.MajorCollections {
				t.Errorf("%d of %d major flips deferred: the stream does not meet the gate both ways", st.FlipDeferrals, st.MajorCollections)
			}
			t.Logf("%d majors, %d flips deferred, %d let through, %d -> %d pauses", st.MajorCollections, st.FlipDeferrals, st.FlipOverruns,
				ungatedStats.PauseCount, st.PauseCount)
		})
	}
}

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
		gc.SetFlipMetering(true, gate)
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
	if st.FlipDeferrals == 0 || ungatedStats.FlipDeferrals != 0 {
		t.Errorf("%d flips deferred with the gate on, %d with it off", st.FlipDeferrals, ungatedStats.FlipDeferrals)
	}
	if short != st.FlipDeferrals || ungatedShort != 0 {
		t.Errorf("%d nursery cycles shorter than N/2 after %d deferrals (%d with the gate off): want one short cycle a deferral", short, st.FlipDeferrals, ungatedShort)
	}
}

// TestFlipMeteringUnderReplay records a flip script under rt and replays it
// under major-inc, the replicating configuration that honours one. A replayed
// run collects at the script's allocation marks and completes every
// collection in its pause, so even this mortal torture stream copies the same
// bytes whatever the flip worklist holds: hiding must move nothing but the
// slots re-pointed, and the gate — the script decides, every replayed major
// is forced — nothing at all.
func TestFlipMeteringUnderReplay(t *testing.T) {
	run := func(cfg core.Config, hiding, gate bool) (uint64, core.GCStats, simtime.Duration) {
		m, gc := newRun(cfg, core.LogAllMutations)
		gc.SetFlipMetering(hiding, gate)
		d := gctest.NewDriver(m, 5)
		for round := 0; round < 100; round++ {
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
	want, recStats, _ := run(rec, true, true)
	if recStats.MajorCollections < 3 {
		t.Fatalf("%d majors recorded: the run is too small to say anything", recStats.MajorCollections)
	}
	replay := rec
	replay.IncrementalMinor, replay.Record, replay.Replay = false, nil, script
	queued, queuedStats, _ := run(replay, false, false)
	hidden, hiddenStats, hiddenNow := run(replay, true, false)
	gated, gatedStats, gatedNow := run(replay, true, true)
	if queued != want || hidden != want || gated != want {
		t.Errorf("graphs %016x (every mutable reference queued), %016x (hidden holders), %016x (and the gate); recorded %016x", queued, hidden, gated, want)
	}
	sameVolume(t, hiddenStats, queuedStats, "with every mutable reference queued")
	if hiddenStats.FlipEntryUpdates >= queuedStats.FlipEntryUpdates {
		t.Errorf("%d flip entries re-pointed, %d with every mutable reference queued: want strictly fewer", hiddenStats.FlipEntryUpdates, queuedStats.FlipEntryUpdates)
	}
	gatedStats.FlipCopied, hiddenStats.FlipCopied = nil, nil // the one field == cannot compare; a function of the bytes copied
	if !reflect.DeepEqual(gatedStats, hiddenStats) || gatedNow != hiddenNow || gatedStats.FlipDeferrals != 0 || gatedStats.FlipOverruns != 0 {
		t.Errorf("the gate moved a replayed run:\n on  %+v at %v\n off %+v at %v", gatedStats, gatedNow, hiddenStats, hiddenNow)
	}
}

// TestDeferredFlipAlwaysEnds pins the two ways out of the gate, without which
// a major cycle could wait for ever: a flip whose cost alone is over the
// budget runs at once, and one that has been put off the fixed number of times
// in a row runs regardless. Both are counted, and mark their pause.
func TestDeferredFlipAlwaysEnds(t *testing.T) {
	// L = 1 KB: the roots alone cost more than copying 2 KB takes, so no flip
	// can ever fit and none waits.
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
		marked := 0
		for _, p := range gc.Pauses().Pauses {
			if p.FlipOverrun {
				marked++
			}
		}
		if st := gc.Stats(); st.MajorCollections == 0 || st.FlipOverruns != st.MajorCollections || st.FlipDeferrals != 0 || marked != st.FlipOverruns {
			t.Errorf("%d majors, %d flips let through in %d marked pauses, %d deferred: want every flip let through at once", st.MajorCollections, st.FlipOverruns, marked, st.FlipDeferrals)
		}
	})
	// Four torture drivers under the paper's L and a 64 KB nursery of which
	// half survives: the first major's flip would fit an empty pause, and
	// every pause the running mutators cause is full, so only the cap ends the
	// cycle before FinishCycles would.
	t.Run("every-pause-full", func(t *testing.T) {
		cfg := paperRT()
		cfg.NurseryBytes, cfg.MajorThresholdBytes = 64<<10, 256<<10
		g, gc, md, _ := tortureGroup4(t, cfg, 400)
		if st := gc.Stats(); st.MajorCollections != 1 || st.FlipOverruns != 1 || st.FlipDeferrals < core.MaxFlipDeferrals {
			t.Errorf("%d majors ended while the mutators ran, %d flips let through after %d deferrals: want the cap to have ended one cycle", st.MajorCollections, st.FlipOverruns, st.FlipDeferrals)
		}
		if err := g.Run(0, gc.FinishCycles); err != nil {
			t.Fatal(err)
		}
		if err := md.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}
