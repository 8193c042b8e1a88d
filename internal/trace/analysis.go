package trace

import "repligc/internal/simtime"

// Analyze validates events and digests them: it rebuilds the pause list —
// start, length, kind, cause, bytes copied, log entries, per-phase time and
// span count — from the events alone and hands it to the digest every report uses,
// over a span that ends at the last event. The trace must be well-formed
// (Validate); a trimmed Recorder.Events slice always is.
func Analyze(events []Event) (*simtime.Digest, error) {
	if err := Validate(events); err != nil {
		return nil, err
	}
	var rec simtime.Recorder
	var cur simtime.Pause
	var phaseStart, end simtime.Duration
	for _, e := range events {
		end = e.At
		switch e.Kind {
		case KindPauseBegin:
			cur = simtime.Pause{At: e.At}
		case KindPauseEnd:
			cur.Length, cur.Kind, cur.Cause, cur.CopiedB, cur.LogProcN = e.At-cur.At, simtime.PauseKind(e.C), e.Cause, e.A, e.B
			rec.Pauses = append(rec.Pauses, cur)
		case KindPhaseBegin:
			phaseStart = e.At
		case KindPhaseEnd:
			cur.PhaseTime[e.Phase] += e.At - phaseStart
			cur.PhaseSpans[e.Phase] += int(e.A)
		}
	}
	return rec.Digest(end), nil
}
