package core

import (
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// PauseBracket is the one bracket every pause of every collector runs in. A
// collector holds one by value, charges every unit of its pause work through
// it and fills in the pause in progress as it works; the bracket counts, times
// and records each pause, and owns the record and the flight recorder.
type PauseBracket struct {
	Rec             simtime.Recorder // every pause so far, in order
	Trace           *trace.Recorder  // nil when tracing is disabled (every emit is a nil check)
	stats           *GCStats         // the collector's counters
	cur             simtime.Pause    // the pause in progress
	phase           simtime.Phase    // the phase it is in, NumPhases before its first charge
	since           simtime.Duration // when it entered that phase
	copied, scanned int64            // the bytes copied and the log entries scanned at Begin
}

// NewPauseBracket returns the bracket of the collector whose counters are stats.
func NewPauseBracket(stats *GCStats) PauseBracket { return PauseBracket{stats: stats} }

// Begin stops the mutator and opens a pause for cause, the entry that opened
// it with any bits known before it starts; End closes it.
func (b *PauseBracket) Begin(m *Mutator, cause simtime.Cause) {
	m.Clock.BeginPause()
	at := m.Clock.Now()
	b.Trace.Counters(at, m.LogWrites, m.BarrierFastSkips, m.BarrierDirtySkips)
	b.cur = simtime.Pause{At: at, Cause: cause}
	b.phase, b.copied, b.scanned = simtime.NumPhases, b.stats.TotalBytesCopied(), b.stats.LogScanned
	b.stats.PauseCount++
}

// Charge charges d to account a: how a collector spends pause time. The
// account names the phase the work belongs to (Account.Phase), and a charge to
// another phase than the one the pause is in switches to it.
func (b *PauseBracket) Charge(m *Mutator, a simtime.Account, d simtime.Duration) {
	if p := a.Phase(); p != b.phase && d > 0 {
		b.switchTo(p, m.Clock.Now())
	}
	m.Clock.Charge(a, d)
}

// checkpoint runs a checkpoint writer's turn, which charges the clock
// without the bracket: the time it took, if any, is one checkpoint span.
func (b *PauseBracket) checkpoint(m *Mutator, turn func()) {
	start := m.Clock.Now()
	turn()
	if m.Clock.Now() > start {
		b.switchTo(simtime.PhaseCheckpoint, start)
	}
}

// switchTo ends the pause's current phase span at now and begins one of
// phase p.
func (b *PauseBracket) switchTo(p simtime.Phase, now simtime.Duration) {
	b.endPhase(now)
	b.phase, b.since = p, now
	b.cur.PhaseSpans[p]++
}

// endPhase adds the current phase span, if any, to the pause's record.
func (b *PauseBracket) endPhase(now simtime.Duration) {
	if b.phase < simtime.NumPhases {
		b.cur.PhaseTime[b.phase] += now - b.since
	}
}

// End restarts the mutator and records the pause as kind, with what the
// collector's counters say it copied and replayed. Its stop-the-world portion
// is its root-scan, flip and checkpoint time, or all of it when its cause is
// Exclusive.
func (b *PauseBracket) End(m *Mutator, kind simtime.PauseKind) {
	p := &b.cur
	b.endPhase(m.Clock.Now())
	p.Length, p.Kind = m.Clock.EndPause(), kind
	p.Sync = p.PhaseTime[simtime.PhaseRootScan] + p.PhaseTime[simtime.PhaseFlip] + p.PhaseTime[simtime.PhaseCheckpoint]
	if p.Cause.Exclusive() {
		p.Sync = p.Length
	}
	p.CopiedB, p.LogProcN = b.stats.TotalBytesCopied()-b.copied, b.stats.LogScanned-b.scanned
	b.Rec.Record(*p)
	b.Trace.Pause(p)
}
