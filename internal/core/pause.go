package core

import (
	"repligc/internal/simtime"
	"repligc/internal/trace"
)

// PauseBracket is the one bracket every pause of every collector runs in. A
// collector holds one by value and fills in the pause in progress as it works;
// the bracket counts, times and records each pause, and owns the record and
// the flight recorder.
type PauseBracket struct {
	Rec   simtime.Recorder // every pause so far, in order
	Trace *trace.Recorder  // nil when tracing is disabled (every emit is a nil check)
	stats *GCStats         // the collector's counters
	cur   simtime.Pause    // the pause in progress
	// The sync accounts, the bytes copied and the log entries scanned at Begin.
	syncBase        simtime.Duration
	copied, scanned int64
}

// NewPauseBracket returns the bracket of the collector whose counters are stats.
func NewPauseBracket(stats *GCStats) PauseBracket { return PauseBracket{stats: stats} }

// Begin stops the mutator and opens a pause; End closes it.
func (b *PauseBracket) Begin(m *Mutator) {
	m.Clock.BeginPause()
	at := m.Clock.Now()
	b.Trace.PauseBegin(at)
	b.Trace.Counters(at, m.LogWrites, m.BarrierFastSkips, m.BarrierDirtySkips)
	b.cur = simtime.Pause{At: at}
	b.syncBase, b.copied, b.scanned = syncTime(m.Clock), b.stats.TotalBytesCopied(), b.stats.LogScanned
	b.stats.PauseCount++
}

// Phase opens a phase of the pause in progress and returns it as a span; its
// End adds the span to the pause's record. Callers end the span exactly once,
// on every exit path, so the trace's begin/end events stay balanced even when
// an increment ends in a typed exhaustion error. Ended at once, it is a span
// of no length: how the degradation ladder's emergency rung is marked. The
// span is a value, so opening and closing one allocates nothing.
func (b *PauseBracket) Phase(m *Mutator, p simtime.Phase) PhaseSpan {
	start := m.Clock.Now()
	b.Trace.PhaseBegin(start, p)
	return PhaseSpan{b: b, m: m, phase: p, start: start}
}

// PhaseSpan is a phase of the pause in progress, from Phase to End.
type PhaseSpan struct {
	b     *PauseBracket
	m     *Mutator
	phase simtime.Phase
	start simtime.Duration
}

// End closes the span, adding its time to the pause's record.
func (s PhaseSpan) End() {
	now := s.m.Clock.Now()
	s.b.cur.PhaseTime[s.phase] += now - s.start
	s.b.cur.PhaseSpans[s.phase]++
	s.b.Trace.PhaseEnd(now, s.phase)
}

// End restarts the mutator and records the pause as kind, with what the
// collector's counters say it copied and replayed. Its stop-the-world portion
// is what the sync accounts gained, or all of it when stw says the pause ran
// without a budget and stopped every mutator throughout, which marks it Forced.
func (b *PauseBracket) End(m *Mutator, kind simtime.PauseKind, stw bool) {
	p := &b.cur
	p.Length, p.Kind, p.Forced = m.Clock.EndPause(), kind, p.Forced || stw
	p.Sync = min(syncTime(m.Clock)-b.syncBase, p.Length)
	if stw {
		p.Sync = p.Length
	}
	p.CopiedB, p.LogProcN = b.stats.TotalBytesCopied()-b.copied, b.stats.LogScanned-b.scanned
	b.Rec.Record(*p)
	b.Trace.PauseEnd(m.Clock.Now(), p.CopiedB, p.LogProcN, int64(kind))
}

// syncTime sums the accounts whose within-pause deltas form the stop-the-world
// portion of a pause (Pause.Sync): root scans, flips and checkpoint commits
// need every mutator stopped, while replica copying and log replay only need
// the from-space invariant and may overlap other mutators' execution in the
// multi-mutator time model (group.go).
func syncTime(clk *simtime.Clock) simtime.Duration {
	return clk.AccountTotal(simtime.AcctRootScan) + clk.AccountTotal(simtime.AcctFlip) + clk.AccountTotal(simtime.AcctCheckpoint)
}
