package bench

// Pins of what the pause's budget decides in the engine cells — when a copy
// splits, which pauses are Forced or overran, what each phase took — and of
// the budget every pause offers its checkpointer. The engine golden hashes
// the pause record's lengths and volumes only; these hash every field of
// every pause and every counter. They must pass untouched across a change to
// how the budget is represented, except for the budget offered in an
// emergency pause, which is not hashed: it is unlimited by design (DESIGN.md,
// "Pause bound"), and only whether the pause is one is.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repligc/internal/core"
	"repligc/internal/policy"
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// budgetRecorder is a checkpointer that writes nothing: it records the budget
// each pause offers it, and the pause record and counters at the run's end.
type budgetRecorder struct {
	words, pauses []int // BudgetWords, and the pause it was offered in (1-based)
	record        []simtime.Pause
	stats         core.GCStats
}

func (b *budgetRecorder) PauseCheckpoint(m *core.Mutator, p core.CheckpointPoint) bool {
	b.words = append(b.words, p.BudgetWords)
	b.pauses = append(b.pauses, m.GC.Stats().PauseCount)
	return false
}

func (b *budgetRecorder) ForceCommit(m *core.Mutator, gc *core.Replicating) error {
	b.record, b.stats = gc.Pauses().Pauses, *gc.Stats()
	return nil
}

func (b *budgetRecorder) Stats() rig.CheckpointStats { return rig.CheckpointStats{} }

// fingerprint hashes the cell's engine-golden line, every pause, every
// counter and each budget offered outside an emergency.
func (b *budgetRecorder) fingerprint(line string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%#v\n", line, b.stats)
	for _, p := range b.record {
		fmt.Fprintf(h, "%#v\n", p)
	}
	for i, words := range b.words {
		if b.record[b.pauses[i]-1].PhaseSpans[simtime.PhaseEmergency] > 0 {
			fmt.Fprintf(h, "%d:emergency;", b.pauses[i])
		} else {
			fmt.Fprintf(h, "%d:%d;", b.pauses[i], words)
		}
	}
	return h.Sum64()
}

// budgetPins holds one fingerprint per replicating configuration over both
// engine shapes and all four fault plans, and one for the engine golden's
// recorded-and-replayed pair.
var budgetPins = map[string]string{
	"rt":        "36e275648ef43563",
	"minor-inc": "204bf72b8d521309",
	"major-inc": "f0af4c1a205cdccd",
	"rt-lazy":   "4cf61342169aa52b",
	"rt-conc":   "734a2e2bccf0f2d8",
	"rt-defer":  "de7497f06a8154f8",
	"replay":    "2671c9a5c4ed014d",
}

func TestBudgetPins(t *testing.T) {
	cell := func(rc rig.Config, seed int64, plan enginePlan) uint64 {
		rec := &budgetRecorder{}
		rc.Checkpoint, rc.NaiveBarrier = rec, plan.naiveBarrier
		line, err := engineGoldenCell(rc, seed, plan.plan)
		if err != nil {
			t.Fatalf("%s %s: %v", rc.Collector.Name, plan.name, err)
		}
		return rec.fingerprint(line)
	}
	check := func(name string, h uint64) {
		if got := fmt.Sprintf("%016x", h); got != budgetPins[name] {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, budgetPins[name])
		}
	}
	for _, coll := range []rig.Collector{rig.RT, rig.MinorInc, rig.MajorInc, rig.RTLazy, rig.RTConc, rig.RTDefer} {
		h := fnv.New64a()
		for _, sh := range engineShapes {
			for _, p := range enginePlans() {
				fmt.Fprintf(h, "%016x;", cell(engineGoldenConfig(coll, sh.params), sh.seed, p))
			}
		}
		check(coll.Name, h.Sum64())
	}

	roomy := engineShapes[1]
	script := &policy.Script{}
	rc := engineGoldenConfig(rig.RT, roomy.params)
	rc.Record = script
	recorded := cell(rc, roomy.seed, enginePlan{name: "recorded"})
	rc = engineGoldenConfig(rig.MajorInc, roomy.params)
	rc.Replay = script
	check("replay", recorded^cell(rc, roomy.seed, enginePlan{name: "replayed"}))
}
