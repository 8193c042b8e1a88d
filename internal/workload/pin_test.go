package workload

// Pins taken before the artifact kit replaced the per-package codecs, pause
// indexes and fingerprint mixers: the bytes of a serving-trace artifact, the
// two serving fingerprints, and a seeded differential proving the three
// pause-interval computations agree. A refactor that claims "every artifact
// byte, fingerprint and simulated number stays bit-identical" must leave this
// file passing untouched.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repligc/internal/simtime"
	"repligc/internal/trace"
)

const (
	pinTraceBytes       = 59499
	pinTraceSHA256      = "cc6f8fd40c124fb8c8bdb9eb7efc142373d49695e4692553759b5649459b1078"
	pinTraceFingerprint = "a4ea176212f67f32"
	pinHeapFingerprint  = "1fae8dafd62b9cd5"
)

// TestArtifactPins pins EncodeTrace's bytes, Trace.Fingerprint and the
// serving heap fingerprint on the unit-test spec.
func TestArtifactPins(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	if len(enc) != pinTraceBytes {
		t.Errorf("artifact is %d bytes, pinned %d", len(enc), pinTraceBytes)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != pinTraceSHA256 {
		t.Errorf("artifact sha256 %s, pinned %s", got, pinTraceSHA256)
	}
	if got := fmt.Sprintf("%016x", tr.Fingerprint()); got != pinTraceFingerprint {
		t.Errorf("Trace.Fingerprint %s, pinned %s", got, pinTraceFingerprint)
	}
	rt, err := NewRuntime(tr.Spec, RuntimeOptions{Collector: CollectorRT})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	leg, err := Serve(rt, tr, "pin", ServeOptions{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if leg.HeapFingerprint != pinHeapFingerprint {
		t.Errorf("heap_fingerprint %s, pinned %s", leg.HeapFingerprint, pinHeapFingerprint)
	}
}

// overlap is the brute-force pause time inside [a, b].
func overlap(pauses []simtime.Pause, a, b simtime.Duration) simtime.Duration {
	var sum simtime.Duration
	for _, p := range pauses {
		lo, hi := p.At, p.At+p.Length
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			sum += hi - lo
		}
	}
	return sum
}

// maxBusy is the brute-force worst window: the largest overlap sum over the
// given window starts.
func maxBusy(pauses []simtime.Pause, w simtime.Duration, starts []simtime.Duration) simtime.Duration {
	var busy simtime.Duration
	for _, s := range starts {
		if b := overlap(pauses, s, s+w); b > busy {
			busy = b
		}
	}
	return busy
}

// TestPauseIntervalDifferential is the three-way differential over seeded
// random non-overlapping pause lists: simtime.MMUFromPauses, trace's
// Analysis.MMU over the same pauses bracketed by events at 0 and total, and
// the serving engine's overlap kernel, each against a brute-force overlap
// sum. The integer busy time must agree everywhere — each public MMU must
// equal its own final float expression applied to the brute-force maximum —
// and the two ratios, which finish with different expressions, must lie
// within one unit-scale ULP (2^-52) of each other. Even iterations use
// few-nanosecond times, so the brute force can try every integer window
// start and every overlap query; odd iterations scale times to the
// millisecond range, where the two float expressions really do disagree in
// the last bit, and the brute force tries the pause-edge starts.
func TestPauseIntervalDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	lastBit := 0
	for iter := 0; iter < 400; iter++ {
		small := iter%2 == 0
		draw := func(n int) simtime.Duration {
			if small {
				return simtime.Duration(rnd.Intn(n))
			}
			if rnd.Intn(4) == 0 {
				return 0
			}
			return simtime.Duration(rnd.Int63n(int64(n) * int64(simtime.Millisecond)))
		}
		var pauses []simtime.Pause
		at := draw(6)
		for i, n := 0, rnd.Intn(10); i < n; i++ {
			p := simtime.Pause{At: at, Length: draw(12)}
			pauses = append(pauses, p)
			gap := draw(9) // gap 0: adjacent pauses
			if p.Length == 0 && gap == 0 {
				// Two pauses sharing a start: MMUFromPauses sorts by start
				// alone, so an empty pause may land after its neighbour and
				// its "pause before" lookup then over-counts. Kept out of
				// the pin; no recorder emits it.
				gap = 1
			}
			at += p.Length + gap
		}
		total := at + 1 + draw(6)

		evs := []trace.Event{{At: 0, Kind: trace.KindAllocEpoch}}
		for _, p := range pauses {
			evs = append(evs,
				trace.Event{At: p.At, Kind: trace.KindPauseBegin},
				trace.Event{At: p.At + p.Length, Kind: trace.KindPauseEnd})
		}
		evs = append(evs, trace.Event{At: total, Kind: trace.KindAllocEpoch})
		an, err := trace.Analyze(evs)
		if err != nil {
			t.Fatalf("iter %d: Analyze: %v", iter, err)
		}
		shuffled := append([]simtime.Pause(nil), pauses...)
		rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		var windows []simtime.Duration
		if small {
			for w := simtime.Duration(1); w < total; w++ {
				windows = append(windows, w)
			}
		} else {
			for i := 0; i < 40; i++ {
				windows = append(windows, 1+simtime.Duration(rnd.Int63n(int64(total-1))))
			}
		}
		for _, w := range windows {
			var starts []simtime.Duration
			if small {
				for s := simtime.Duration(0); s+w <= total; s++ {
					starts = append(starts, s)
				}
			} else {
				starts = append(starts, 0, total-w)
				for _, p := range pauses {
					for _, s := range []simtime.Duration{p.At, p.At + p.Length - w} {
						if s >= 0 && s+w <= total {
							starts = append(starts, s)
						}
					}
				}
			}
			busy := maxBusy(pauses, w, starts)
			fromPauses := simtime.MMUFromPauses(shuffled, total, w)
			fromTrace := an.MMU(w)
			if want := float64(w-busy) / float64(w); fromPauses != want {
				t.Fatalf("iter %d w=%d: MMUFromPauses %v, brute-force busy %d gives %v (pauses %+v total %d)",
					iter, w, fromPauses, busy, want, pauses, total)
			}
			if want := 1 - float64(busy)/float64(w); fromTrace != want {
				t.Fatalf("iter %d w=%d: Analysis.MMU %v, brute-force busy %d gives %v (pauses %+v total %d)",
					iter, w, fromTrace, busy, want, pauses, total)
			}
			if d := math.Abs(fromPauses - fromTrace); d > 0x1p-52 {
				t.Fatalf("iter %d w=%d: the two MMUs differ by %g (> 2^-52): %v vs %v", iter, w, d, fromPauses, fromTrace)
			} else if d != 0 {
				lastBit++
			}
		}

		// The overlap kernel: every query on the small lists, edge-anchored
		// and random ones on the large.
		var cuts []simtime.Duration
		if small {
			for c := simtime.Duration(-2); c <= total+2; c++ {
				cuts = append(cuts, c)
			}
		} else {
			cuts = append(cuts, -1, 0, total, total+1)
			for _, p := range pauses {
				cuts = append(cuts, p.At-1, p.At, p.At+p.Length/2, p.At+p.Length, p.At+p.Length+1)
			}
			for i := 0; i < 8; i++ {
				cuts = append(cuts, simtime.Duration(rnd.Int63n(int64(total))))
			}
		}
		for _, a := range cuts {
			for _, b := range cuts {
				want := simtime.Duration(0)
				if b > a {
					want = overlap(pauses, a, b)
				}
				if got := pauseOverlap(pauses, a, b); got != want {
					t.Fatalf("iter %d: overlap kernel [%d,%d] = %d, brute force %d (pauses %+v)", iter, a, b, got, want, pauses)
				}
			}
		}
	}
	if lastBit == 0 {
		t.Error("the two MMU expressions never disagreed in the last bit; the differential lost its float coverage")
	}
	t.Logf("%d windows where the two final expressions differ in the last bit", lastBit)
}
