package trace

// Exporters: Chrome trace-event JSON (the format Perfetto and about:tracing
// load) and a shape checker for the Chrome output that CI runs against
// emitted artifacts. Chrome timestamps are microseconds; ours are simulated
// nanoseconds, rounded to whole microseconds on export (chromeUs). The
// simulated timeline is presented as pid 1 / tid 1 ("collector").

import (
	"encoding/json"
	"fmt"

	"repligc/internal/simtime"
)

// chromeEvent is one entry of the trace-event format's traceEvents array.
// Maps marshal with sorted keys, so the output is deterministic.
type chromeEvent struct {
	Name  string           `json:"name"`
	Ph    string           `json:"ph"`
	Ts    float64          `json:"ts"`
	Dur   *float64         `json:"dur,omitempty"` // every X slice has one, zero included
	Pid   int              `json:"pid"`
	Tid   int              `json:"tid"`
	Scope string           `json:"s,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// chromeDoc is the trace-event format's object form.
type chromeDoc struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

const (
	chromePid = 1
	chromeTid = 1
)

// chromeUs converts a simulated instant, in nanoseconds, to Chrome's
// microseconds, rounded to a whole one. A whole number of microseconds is
// exact in floating point, so a reader reads back what was written however it
// turns microseconds into nanoseconds, truncating x*1000 included. A slice's
// dur is its rounded end less its rounded start: rounding is monotone, so a
// phase's slice, laid inside its pause's, still ends inside it.
func chromeUs(at simtime.Duration) float64 { return float64((at + 500) / 1000) }

// ChromeTrace renders events as Chrome trace-event JSON: pauses and their
// phases (in phase order, Recorder.Pause) as complete X slices, which
// Perfetto nests by containment, the pause carrying its kind and cause and a
// phase its spans; counters and allocation epochs as C counter series, log
// epochs as instant events. labels lands in otherData verbatim (exporter glue
// may put wall-clock metadata there; the event stream itself never carries
// host time).
func ChromeTrace(events []Event, labels map[string]string) ([]byte, error) {
	ces := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		ce := chromeEvent{Pid: chromePid, Tid: chromeTid, Ts: chromeUs(e.At)}
		dur := chromeUs(e.At+simtime.Duration(e.C)) - ce.Ts // X slices only
		switch e.Kind {
		case KindPause:
			ce.Name, ce.Ph, ce.Dur = "pause", "X", &dur
			ce.Args = map[string]int64{"copied_bytes": e.A, "log_entries": e.B, "kind": int64(e.Phase), "cause": int64(e.Cause)}
		case KindPhase:
			ce.Name, ce.Ph, ce.Dur = e.Phase.String(), "X", &dur
			ce.Args = map[string]int64{"spans": e.A}
		case KindAllocEpoch:
			// One counter series per mutator actor: the thread id carries
			// the actor so a multi-mutator group's allocation timelines
			// render as separate tracks.
			ce.Name, ce.Ph = "allocated_bytes", "C"
			ce.Tid = chromeTid + int(e.B)
			ce.Args = map[string]int64{"bytes": e.A, "actor": e.B}
		case KindCounters:
			ce.Name, ce.Ph = "barrier", "C"
			ce.Args = map[string]int64{"log_writes": e.A, "nursery_skips": e.B, "dirty_skips": e.C}
		case KindLogEpoch:
			ce.Name, ce.Ph, ce.Scope = "log-epoch", "i", "t"
			ce.Args = map[string]int64{"epoch": e.A}
		default:
			return nil, fmt.Errorf("trace: cannot export unknown event kind %d", e.Kind)
		}
		ces = append(ces, ce)
	}
	doc := chromeDoc{TraceEvents: ces, DisplayTimeUnit: "ms", OtherData: labels}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ValidateChrome checks that data parses as Chrome trace-event JSON made of
// the phases ChromeTrace writes — X slices, each with a duration of at least
// zero, C counters and i instants — with non-decreasing timestamps per
// thread. This is the CI shape check for emitted artifacts — structure only,
// never thresholds on the numbers.
func ValidateChrome(data []byte) error {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: no traceEvents")
	}
	type tidKey struct{ pid, tid int }
	lastTs := make(map[tidKey]float64)
	for i, e := range doc.TraceEvents {
		k := tidKey{e.Pid, e.Tid}
		if ts, seen := lastTs[k]; seen && e.Ts < ts {
			return fmt.Errorf("chrome trace: event %d (%s %q) ts %.3f precedes %.3f on pid %d tid %d",
				i, e.Ph, e.Name, e.Ts, ts, e.Pid, e.Tid)
		}
		lastTs[k] = e.Ts
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return fmt.Errorf("chrome trace: event %d: X %q needs a dur of at least 0", i, e.Name)
			}
		case "C", "i":
			// Counters and instants have no duration.
		default:
			return fmt.Errorf("chrome trace: event %d: unsupported phase %q", i, e.Ph)
		}
	}
	return nil
}
