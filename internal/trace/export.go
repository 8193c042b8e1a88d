package trace

// Exporters: Chrome trace-event JSON (the format Perfetto and about:tracing
// load) and a shape checker for the Chrome output that CI runs against
// emitted artifacts. Chrome timestamps are microseconds; ours are simulated
// nanoseconds, so the conversion divides by 1e3. The simulated timeline is
// presented as pid 1 / tid 1 ("collector").

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

// chromeTs converts a simulated timestamp to Chrome's microsecond scale.
func chromeTs(at simtime.Duration) float64 { return float64(at) / 1e3 }

// ChromeTrace renders events as Chrome trace-event JSON: pauses and phases
// as nested B/E duration slices, counters and allocation epochs as C counter
// series, log epochs as instant events. labels lands in otherData verbatim
// (exporter glue may put wall-clock metadata there; the event stream itself
// never carries host time).
func ChromeTrace(events []Event, labels map[string]string) ([]byte, error) {
	ces := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		ce := chromeEvent{Pid: chromePid, Tid: chromeTid, Ts: chromeTs(e.At)}
		switch e.Kind {
		case KindPauseBegin:
			ce.Name, ce.Ph = "pause", "B"
		case KindPauseEnd:
			ce.Name, ce.Ph = "pause", "E"
			ce.Args = map[string]int64{"copied_bytes": e.A, "log_entries": e.B, "kind": e.C}
		case KindPhaseBegin:
			ce.Name, ce.Ph = e.Phase.String(), "B"
		case KindPhaseEnd:
			ce.Name, ce.Ph = e.Phase.String(), "E"
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

// ValidateChrome checks that data parses as Chrome trace-event JSON with
// balanced, properly nested B/E duration events and non-decreasing
// timestamps per thread. This is the CI shape check for emitted artifacts —
// structure only, never thresholds on the numbers.
func ValidateChrome(data []byte) error {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: no traceEvents")
	}
	type tidKey struct{ pid, tid int }
	stacks := make(map[tidKey][]string)
	lastTs := make(map[tidKey]float64)
	for i, e := range doc.TraceEvents {
		k := tidKey{e.Pid, e.Tid}
		if e.Ph != "M" { // metadata events are timeless
			if ts, seen := lastTs[k]; seen && e.Ts < ts {
				return fmt.Errorf("chrome trace: event %d (%s %q) ts %.3f precedes %.3f on pid %d tid %d",
					i, e.Ph, e.Name, e.Ts, ts, e.Pid, e.Tid)
			}
			lastTs[k] = e.Ts
		}
		switch e.Ph {
		case "B":
			stacks[k] = append(stacks[k], e.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("chrome trace: event %d: E %q with no open B on pid %d tid %d",
					i, e.Name, e.Pid, e.Tid)
			}
			if top := st[len(st)-1]; e.Name != "" && top != e.Name {
				return fmt.Errorf("chrome trace: event %d: E %q does not match open B %q", i, e.Name, top)
			}
			stacks[k] = st[:len(st)-1]
		case "C", "i", "I", "M":
			// Counters, instants and metadata carry no nesting.
		default:
			return fmt.Errorf("chrome trace: event %d: unsupported phase %q", i, e.Ph)
		}
	}
	// Map iteration order does not matter here: any unbalanced thread is an
	// error regardless of which one is reported first, but the diagnostics
	// must still be deterministic — collect and pick the smallest key.
	var unbalanced []tidKey
	for k, st := range stacks { //gclint:allow maprange -- keys are re-sorted below; only the sorted minimum reaches the output
		if len(st) > 0 {
			unbalanced = append(unbalanced, k)
		}
	}
	if len(unbalanced) > 0 {
		minK := unbalanced[0]
		for _, k := range unbalanced[1:] {
			if k.pid < minK.pid || (k.pid == minK.pid && k.tid < minK.tid) {
				minK = k
			}
		}
		return fmt.Errorf("chrome trace: %d B events left open on pid %d tid %d (first open: %q)",
			len(stacks[minK]), minK.pid, minK.tid, stacks[minK][0])
	}
	return nil
}
