package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"repligc/internal/artifact"
	"repligc/internal/rig"
)

// fuzzSpec is a one-cohort spec on the smallest heap the engine builds, so
// the fuzzer can afford to serve what it gets accepted.
func fuzzSpec() *Spec {
	return &Spec{
		Name: "fuzz", Seed: 11, DurationMs: 40,
		Heap: HeapSpec{NurseryKB: 16, MajorKB: 64, CopyLimitKB: 8, OldMB: 1},
		Cohorts: []Cohort{{
			Name:    "c",
			Arrival: Arrival{Law: LawPoisson, RatePerSec: 1000},
			Profile: Profile{ObjsPerReq: 2, ObjWords: 4, RetainPct: 0.5, SessionWords: 8, SessionReqs: 3, Mutations: 2, WorkSteps: 10},
			SLO:     SLO{TargetMs: 1, DeadlineMs: 5},
		}},
	}
}

// FuzzParseSpec holds the spec decoder — what `rtgc -serve` and `rtgc-bench
// serve` read from a file — to its contract on arbitrary bytes: a spec or an
// error, never a panic. An accepted spec is one Validate passes, and it
// survives re-encoding unchanged.
func FuzzParseSpec(f *testing.F) {
	committed, err := os.ReadFile("../../examples/serve/mixed.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("an accepted spec does not encode: %v", err)
		}
		if back, err := ParseSpec(again); err != nil || !reflect.DeepEqual(back, spec) {
			t.Fatalf("an accepted spec does not survive re-encoding (%v):\n%+v\n%+v", err, spec, back)
		}
	})
}

// FuzzDecodeTrace holds the trace decoder to the crash matrix's contract on
// arbitrary bytes: decode exactly or reject with the typed error, never
// panic. "Exactly" has two halves: what decodes re-encodes to the same bytes,
// and the engine can serve it — an error is an answer, a panic is not. The
// forged seed records a trace its spec does not regenerate.
func FuzzDecodeTrace(f *testing.F) {
	tr, err := Generate(fuzzSpec())
	if err != nil {
		f.Fatal(err)
	}
	good, err := EncodeTrace(tr)
	if err != nil {
		f.Fatal(err)
	}
	forged := *tr
	forged.Reqs = append([]Req(nil), tr.Reqs...)
	forged.Reqs[0].Session = -1 // well framed, unservable, refused at the fingerprint
	bad, err := EncodeTrace(&forged)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(good)
	f.Add(bad)
	f.Add(flipped)
	f.Add(good[:len(good)-10])
	f.Add(append(append([]byte(nil), good...), good[len(traceMagic):]...))
	f.Add([]byte(traceMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			var ce *artifact.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if again, err := EncodeTrace(tr); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that do not re-encode to themselves (%v)", len(data), err)
		}
		work := 0
		for i := range tr.Reqs {
			work += int(tr.Reqs[i].Muts) + int(tr.Reqs[i].NewWords)
			for _, o := range tr.Reqs[i].Objs {
				work += int(o.Words)
			}
		}
		if hs := tr.Spec.Heap.WithDefaults(); hs.OldMB > 4 || hs.NurseryKB > 1024 || work > 1<<22 {
			t.Skip("bounds the arena and the time per input")
		}
		rt, err := NewRuntime(tr.Spec, rig.Config{Collector: rig.RT})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		if _, err := Serve(rt, tr, "fuzz", ServeOptions{}); err != nil {
			t.Logf("served with error: %v", err)
		}
	})
}
