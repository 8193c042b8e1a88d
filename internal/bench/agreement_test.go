package bench

import (
	"fmt"
	"testing"

	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// figure7 is the paper's cost taxonomy written out apart from simtime's
// account-to-phase table, so that a mis-mapped account shows: the accounts
// whose total each phase's time must equal.
var figure7 = [simtime.NumPhases][]simtime.Account{
	simtime.PhaseRootScan:   {simtime.AcctRootScan},
	simtime.PhaseLogReplay:  {simtime.AcctLogScan, simtime.AcctLogReapply},
	simtime.PhaseCopy:       {simtime.AcctMinorCopy, simtime.AcctMajorCopy},
	simtime.PhaseFlip:       {simtime.AcctFlip},
	simtime.PhaseCheckpoint: {simtime.AcctCheckpoint},
}

// phasesAgree holds a finished run's pause record to its clock: each pause's
// phase times sum to its length, exactly, and each phase's total over the run
// is its figure7 accounts' total, which only pauses charge. Every engine cell
// checks it — the engine golden's and the budget pins' solo cells, the
// checkpointed one among them, and the composition matrix's group cells over
// every collector the table names, checkpointed or not — so the record cannot
// say a phase took other than what the paper's figure 7 reads off the
// accounts.
func phasesAgree(pauses []simtime.Pause, clk *simtime.Clock) error {
	var total [simtime.NumPhases]simtime.Duration
	for i, p := range pauses {
		sum := simtime.Duration(0)
		for ph, t := range p.PhaseTime {
			sum += t
			total[ph] += t
		}
		if sum != p.Length {
			return fmt.Errorf("pause %d: its phases sum to %v, its length is %v (%v)", i, sum, p.Length, p.PhaseTime)
		}
	}
	for ph, accts := range figure7 {
		charged := simtime.Duration(0)
		for _, a := range accts {
			charged += clk.AccountTotal(a)
		}
		if total[ph] != charged {
			return fmt.Errorf("phase %v totals %v over the run, its accounts %v", simtime.Phase(ph), total[ph], charged)
		}
	}
	return nil
}

// TestPhasesAgreeWithAccounts runs the table's stop-and-copy rows — the
// collectors no budget pin covers — in both engine shapes; phasesAgree,
// which engineGoldenCell applies, is the check. Stop-and-copy wedges on its
// first exhaustion, so it cannot finish the shrink-old plan.
func TestPhasesAgreeWithAccounts(t *testing.T) {
	for _, coll := range []rig.Collector{rig.StopCopyCore, rig.SC, rig.SCMods} {
		for _, sh := range engineShapes {
			for _, p := range enginePlans() {
				if coll.StopCopy && p.name == "shrink-old" {
					continue
				}
				rc := engineGoldenConfig(coll, sh.params)
				rc.NaiveBarrier = p.naiveBarrier
				if _, err := engineGoldenCell(rc, sh.seed, p.plan); err != nil {
					t.Errorf("%s %s %s: %v", coll.Name, sh.name, p.name, err)
				}
			}
		}
	}
}
