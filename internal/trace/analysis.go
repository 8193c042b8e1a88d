package trace

import "repligc/internal/simtime"

// Analyze validates events and digests them: it rebuilds the pause list —
// start, length, kind, cause, bytes copied, log entries, per-phase time and
// span count — from the events alone and hands it to the digest every report
// uses, over a span that ends where the last event or pause does. The trace
// must be well-formed (Validate); a Recorder.Events slice always is.
func Analyze(events []Event) (*simtime.Digest, error) {
	if err := Validate(events); err != nil {
		return nil, err
	}
	var rec simtime.Recorder
	var end simtime.Duration
	for _, e := range events {
		end = max(end, e.At)
		switch e.Kind {
		case KindPause:
			end = max(end, e.end())
			rec.Pauses = append(rec.Pauses, simtime.Pause{At: e.At, Length: simtime.Duration(e.C), Kind: simtime.PauseKind(e.Phase),
				Cause: e.Cause, CopiedB: e.A, LogProcN: e.B})
		case KindPhase:
			p := &rec.Pauses[len(rec.Pauses)-1]
			p.PhaseTime[e.Phase] += simtime.Duration(e.C)
			p.PhaseSpans[e.Phase] += int(e.A)
		}
	}
	return rec.Digest(end), nil
}
