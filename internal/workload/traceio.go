package workload

// Trace record/replay. EncodeTrace serialises a materialised trace to a
// versioned artifact — internal/artifact frames (DESIGN.md, "Artifact kit")
// under the magic below; DecodeTrace reads one back bit-identically. The
// footer carries the request count and the trace fingerprint, and every
// request is checked against the header's spec, so a decode either yields
// exactly the encoded trace — one the generator could have produced and the
// engine can serve — or fails with a typed *artifact.CorruptError; never a
// silently different workload. The artifact is canonical: re-encoding a
// decoded trace reproduces its bytes.
//
// This package only transforms bytes; reading and writing artifact *files*
// belongs to cmd/ (gclint rule "io").

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repligc/internal/artifact"
	"repligc/internal/simtime"
)

const (
	traceMagic   = "RGCSRVT1" // serving-trace artifact magic
	traceVersion = 1
	tracePath    = "serving trace" // names the in-memory artifact in errors

	// reqsPerRecord batches requests per frame: artifacts stay streamable
	// and a torn tail corrupts one frame, not the whole request list.
	reqsPerRecord = 1024
)

// Record types.
const (
	recTraceHeader uint8 = iota + 1 // version, seed, spec JSON
	recTraceReqs                    // a batch of materialised requests
	recTraceFooter                  // request count, fingerprint (completeness marker)
)

// EncodeTrace serialises t.
func EncodeTrace(t *Trace) ([]byte, error) {
	specJSON, err := json.Marshal(t.Spec) // canonical: struct order, the bytes Fingerprint digests
	if err != nil {
		return nil, fmt.Errorf("workload trace: marshal spec: %w", err)
	}
	var out bytes.Buffer
	w := artifact.NewWriter(&out, traceMagic)
	var p artifact.Enc
	frame := func(typ uint8) {
		w.Record(typ, p.B)
		p.B = p.B[:0]
	}

	p.U32(traceVersion)
	p.U64(t.Spec.Seed)
	p.Bytes(specJSON)
	frame(recTraceHeader)

	for lo := 0; lo < len(t.Reqs); lo += reqsPerRecord {
		hi := min(lo+reqsPerRecord, len(t.Reqs))
		p.U32(uint32(hi - lo))
		for i := lo; i < hi; i++ {
			r := &t.Reqs[i]
			p.U64(uint64(r.At))
			p.U32(uint32(r.Cohort))
			p.U32(uint32(r.Session))
			p.U32(uint32(r.NewWords))
			p.Bool(r.End)
			p.U32(uint32(r.Muts))
			p.U32(uint32(r.Steps))
			p.U32(uint32(len(r.Objs)))
			for _, o := range r.Objs {
				p.U32(uint32(o.Words))
				p.U32(uint32(o.Retain))
			}
		}
		frame(recTraceReqs)
	}

	p.U64(uint64(len(t.Reqs)))
	p.U64(t.Fingerprint())
	frame(recTraceFooter)
	return out.Bytes(), nil
}

// DecodeTrace reads an artifact back. The returned trace is verified
// against the footer's request count and fingerprint.
func DecodeTrace(data []byte) (*Trace, error) {
	rr, err := artifact.NewReader(bytes.NewReader(data), int64(len(data)), tracePath, traceMagic)
	if err != nil {
		return nil, err
	}
	var (
		t         *Trace
		sessions  []int32 // per cohort: sessions created so far
		lastBatch uint32  = reqsPerRecord
		sawFooter bool
	)
	for {
		typ, body, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if sawFooter {
			return nil, artifact.Corrupt(tracePath, "data after footer record")
		}
		if (typ == recTraceHeader) != (t == nil) {
			return nil, artifact.Corrupt(tracePath, "record type %d: the header must come first, once", typ)
		}
		d := artifact.Dec{B: body, Path: tracePath}
		switch typ {
		case recTraceHeader:
			ver := d.U32()
			seed := d.U64()
			specJSON := d.Bytes()
			if err := d.Done(); err != nil {
				return nil, err
			}
			if ver != traceVersion {
				return nil, artifact.Corrupt(tracePath, "version %d, want %d", ver, traceVersion)
			}
			spec, err := ParseSpec(specJSON)
			if err != nil {
				return nil, &artifact.CorruptError{Path: tracePath, Detail: "header spec", Err: err}
			}
			if canon, err := json.Marshal(spec); err != nil || !bytes.Equal(canon, specJSON) || spec.Seed != seed {
				return nil, artifact.Corrupt(tracePath, "header spec is not in canonical form or disagrees with header seed %d", seed)
			}
			t = &Trace{Spec: spec}
			sessions = make([]int32, len(spec.Cohorts))
		case recTraceReqs:
			n := d.U32()
			if lastBatch != reqsPerRecord || n == 0 || n > reqsPerRecord {
				return nil, artifact.Corrupt(tracePath, "request record of %d after one of %d: batches are %d, the last one shorter", n, lastBatch, reqsPerRecord)
			}
			lastBatch = n
			// One slab for the frame's objects: at 8 payload bytes each, a
			// forged count cannot allocate more than the frame holds.
			slab := make([]ObjAlloc, 0, len(body)/8)
			for i := uint32(0); i < n; i++ {
				var r Req
				r.At = simtime.Duration(d.U64())
				r.Cohort = int32(d.U32())
				r.Session = int32(d.U32())
				r.NewWords = int32(d.U32())
				r.End = d.Bool()
				r.Muts = int32(d.U32())
				r.Steps = int32(d.U32())
				no := d.U32()
				if d.Err() == nil && uint64(no)*8 > uint64(len(d.B)) {
					return nil, artifact.Corrupt(tracePath, "request record: object count %d exceeds payload", no)
				}
				r.Objs = cutObjs(&slab, int(no))
				for j := range r.Objs {
					r.Objs[j].Words = int32(d.U32())
					r.Objs[j].Retain = int32(d.U32())
				}
				if err := d.Err(); err != nil {
					return nil, err
				}
				if err := t.admit(&r, sessions); err != nil {
					return nil, err
				}
			}
			if err := d.Done(); err != nil {
				return nil, err
			}
		case recTraceFooter:
			count, print := d.U64(), d.U64()
			if err := d.Done(); err != nil {
				return nil, err
			}
			if uint64(len(t.Reqs)) != count {
				return nil, artifact.Corrupt(tracePath, "footer promises %d requests, found %d", count, len(t.Reqs))
			}
			if got := t.Fingerprint(); got != print {
				return nil, artifact.Corrupt(tracePath, "fingerprint mismatch: footer %016x, decoded %016x", print, got)
			}
			sawFooter = true
		default:
			return nil, artifact.Corrupt(tracePath, "unknown record type %d", typ)
		}
	}
	if !sawFooter {
		return nil, artifact.Corrupt(tracePath, "incomplete artifact (no footer); the recording did not finish")
	}
	return t, nil
}

// admit appends a decoded request after holding it to what Generate can
// produce under the header's spec and what Serve indexes without checking:
// the fingerprint proves the requests are the ones that were encoded, not
// that they were ever sane. sessions counts, per cohort, the sessions
// created so far; a session slot is never numbered past that.
func (t *Trace) admit(r *Req, sessions []int32) error {
	if r.Cohort < 0 || int(r.Cohort) >= len(t.Spec.Cohorts) {
		return artifact.Corrupt(tracePath, "request %d: cohort %d out of range", len(t.Reqs), r.Cohort)
	}
	words := int32(t.Spec.Cohorts[r.Cohort].Profile.SessionWords)
	if r.NewWords == words {
		sessions[r.Cohort]++
	}
	ok := (r.NewWords == 0 || r.NewWords == words) &&
		r.Session >= 0 && r.Session < sessions[r.Cohort] &&
		r.Muts >= 0 && r.Steps >= 0 && r.At >= 0 &&
		(len(t.Reqs) == 0 || r.At >= t.Reqs[len(t.Reqs)-1].At)
	for _, o := range r.Objs {
		ok = ok && o.Words >= 1 && o.Retain >= -1 && o.Retain < words
	}
	if !ok {
		return artifact.Corrupt(tracePath, "request %d (%+v) is not one cohort %d's generator can produce", len(t.Reqs), *r, r.Cohort)
	}
	t.Reqs = append(t.Reqs, *r)
	return nil
}
