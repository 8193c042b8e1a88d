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
	"rt":        "e06d9268eef3e953",
	"minor-inc": "55e82ebb59323b1c",
	"major-inc": "e51f9147171ab817",
	"rt-lazy":   "a936847aa3e0e192",
	"rt-defer":  "f945c37a659a8864",
	"replay":    "0ea0be40f6f342fe",
}

// projectionPins holds the same cells' projections (budgetRecorder.projection).
var projectionPins = map[string]string{
	"rt":        "8a837a935cb9e7e1",
	"minor-inc": "6f5537e65ba61e4b",
	"major-inc": "0254c55f24740006",
	"rt-lazy":   "c3f77ee50c96312b",
	"rt-defer":  "bc6c1268dc2352cb",
	"replay":    "d973d712b8d7997d",
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
