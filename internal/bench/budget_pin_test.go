package bench

// Pins of what the pause's budget decides in the engine cells — when a copy
// splits, which pauses are Forced or overran, what each phase took — and of
// the budget every pause offers its checkpointer. The engine golden hashes
// the pause record's lengths and volumes only; these hash every field of
// every pause and every counter. They must pass untouched across a change to
// how the budget is represented, except for the budget offered in an
// emergency pause, which is not hashed: it is unlimited by design (DESIGN.md,
// "Pause bound"), and only whether the pause is one is. Beside them, a
// projection of each pause leaves out only how its time divides among phases
// and how the record spells why it ran: a change to either must hold it.
// TestBudgetPins checks both on TestEngineSimulatedIdentity's cells, each run
// once with a budgetRecorder attached (runEngineCells).

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repligc/internal/core"
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
		if b.record[b.pauses[i]-1].Cause.Emergency() {
			fmt.Fprintf(h, "%d:emergency;", b.pauses[i])
		} else {
			fmt.Fprintf(h, "%d:%d;", b.pauses[i], words)
		}
	}
	return h.Sum64()
}

// projection hashes each pause's record less how its time divides among
// phases and the cause word itself: every field a report or the frozen
// benchmark reads, with whether the pause was forced, deferred or an
// emergency.
func (b *budgetRecorder) projection() uint64 {
	h := fnv.New64a()
	for _, p := range b.record {
		fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%v,%v,%v;", p.At, p.Length, p.Kind, p.Sync, p.CopiedB, p.LogProcN,
			p.FlipEntries, p.RootSlots, p.LogLeft, p.Overrun, p.Cause.Forced(), p.Cause.Deferred(), p.Cause.Emergency())
	}
	return h.Sum64()
}

// budgetPins holds one fingerprint per replicating configuration over both
// engine shapes and all four fault plans, and one for the engine golden's
// recorded-and-replayed pair.
var budgetPins = map[string]string{
	"rt":        "cdb392365df5f0f3",
	"minor-inc": "a3508e88a1c4d951",
	"major-inc": "e8e131b3872c917c",
	"rt-lazy":   "4d11485e688a05a6",
	"rt-defer":  "477c47f2b5d60250",
	"replay":    "bd030bd3bcc513e8",
}

// projectionPins holds the same cells' projections (budgetRecorder.projection).
var projectionPins = map[string]string{
	"rt":        "88e34a5e761d5e21",
	"minor-inc": "7642a7440c90fa76",
	"major-inc": "1af94e6a64df637a",
	"rt-lazy":   "801f50a73707a3d9",
	"rt-defer":  "17f31a96b98eaedd",
	"replay":    "7bf39da9dbc2e2d3",
}

func TestBudgetPins(t *testing.T) {
	r := runEngineCells(t)
	for _, name := range []string{"rt", "minor-inc", "major-inc", "rt-lazy", "rt-defer", "replay"} {
		h := r.pins[name]
		if got := fmt.Sprintf("%016x", h[0]); got != budgetPins[name] {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, budgetPins[name])
		}
		if got := fmt.Sprintf("%016x", h[1]); got != projectionPins[name] {
			t.Errorf("%s: projection %s, pinned %s", name, got, projectionPins[name])
		}
	}
}
