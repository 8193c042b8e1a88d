// Package simtime provides the deterministic simulated clock used by the
// whole system. Every unit of work — a VM instruction, an allocated word, a
// copied word, a processed mutation-log entry — is charged a fixed cost from
// a CostModel, so "time" measurements are exact functions of the work
// performed, independent of the host machine and of Go's own garbage
// collector. The default cost model is calibrated against the paper's
// DECstation 5000/200 measurements: a copying rate of about 2 MB/s, so that
// a copy budget of L = 100 KB corresponds to a 50 ms pause.
package simtime

import "fmt"

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with a unit chosen by magnitude.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.1fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Account identifies a bucket of charged time, so that total execution time
// can be decomposed into the components of the paper's figure 7.
type Account int

// The accounts of figure 7 ("Components of Execution Time").
const (
	AcctMutator     Account = iota // ordinary mutator instructions
	AcctAlloc                      // allocation (bump pointer + header init)
	AcctLogWrite                   // mutator-side mutation logging
	AcctHeaderCheck                // getheader forwarding checks
	AcctMinorCopy                  // copying/scanning during minor collections
	AcctMajorCopy                  // copying/scanning during major collections
	AcctLogScan                    // generational scan of pointer mutations
	AcctLogReapply                 // reapplying mutations to replicas (CR)
	AcctFlip                       // atomically updating roots at a flip (CF)
	AcctRootScan                   // scanning mutator roots
	AcctCheckpoint                 // incremental snapshot copying and WAL persistence
	AcctIdle                       // open-loop serving: the server waiting for the next arrival
	numAccounts
)

var acctNames = [numAccounts]string{
	"mutator", "alloc", "log-write", "header-check",
	"minor-copy", "major-copy", "log-scan", "log-reapply", "flip", "root-scan",
	"checkpoint", "idle",
}

// String returns the short name of the account.
func (a Account) String() string {
	if a < 0 || a >= numAccounts {
		return fmt.Sprintf("account(%d)", int(a))
	}
	return acctNames[a]
}

// NumAccounts is the number of distinct charge accounts.
const NumAccounts = int(numAccounts)

// Clock accrues simulated time. It is not safe for concurrent use; the
// simulation is single-threaded by design (the paper's collector interleaves
// with the mutator rather than running in parallel). Multi-mutator groups
// share one clock as a serial total-work timeline and project overlap
// separately (core.Group).
type Clock struct {
	now      Duration
	byAcct   [numAccounts]Duration
	inPause  bool
	pauseAcc Duration // time accrued during the current pause
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time.
func (c *Clock) Now() Duration { return c.now }

// Charge advances the clock by d, attributing the time to account a.
// Negative charges are ignored.
func (c *Clock) Charge(a Account, d Duration) {
	if d <= 0 {
		return
	}
	c.now += d
	c.byAcct[a] += d
	if c.inPause {
		c.pauseAcc += d
	}
}

// AccountTotal reports the total time charged to account a.
func (c *Clock) AccountTotal(a Account) Duration { return c.byAcct[a] }

// Breakdown returns a copy of the per-account totals.
func (c *Clock) Breakdown() [NumAccounts]Duration {
	var out [NumAccounts]Duration
	copy(out[:], c.byAcct[:])
	return out
}

// BeginPause marks the start of a garbage-collection pause. Charges made
// until EndPause accumulate into the pause duration. Pauses do not nest.
func (c *Clock) BeginPause() {
	if c.inPause {
		panic("simtime: BeginPause while already paused")
	}
	c.inPause = true
	c.pauseAcc = 0
}

// EndPause marks the end of the current pause and returns its duration.
func (c *Clock) EndPause() Duration {
	if !c.inPause {
		panic("simtime: EndPause without BeginPause")
	}
	c.inPause = false
	return c.pauseAcc
}
