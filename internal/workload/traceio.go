package workload

// Trace record/replay. Generate is a pure function of the spec, seed
// included, so the spec is the recording: EncodeTrace writes one
// internal/artifact record (DESIGN.md, "Artifact kit") under the magic below
// — the canonical spec JSON, the request count and the trace fingerprint —
// and DecodeTrace regenerates the trace from the spec and holds it to the
// count and the fingerprint. A decode either yields exactly the encoded
// trace, which Generate made and the engine can serve, or fails with a typed
// *artifact.CorruptError: a damaged frame, a spec ParseSpec refuses or one
// not in canonical form, a forged count or fingerprint, a generator that has
// changed since the recording, or an artifact of an older format. The
// artifact is canonical: re-encoding a decoded trace reproduces its bytes.
//
// This package only transforms bytes; reading and writing artifact *files*
// belongs to cmd/ (gclint rule "io").

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repligc/internal/artifact"
)

const (
	traceMagic = "RGCSRVT2"      // serving-trace artifact magic
	tracePath  = "serving trace" // names the in-memory artifact in errors
	recTrace   = uint8(1)        // the one record: spec JSON, request count, fingerprint
)

// EncodeTrace serialises t.
func EncodeTrace(t *Trace) ([]byte, error) {
	specJSON, err := json.Marshal(t.Spec) // canonical: struct order, the bytes Fingerprint digests
	if err != nil {
		return nil, fmt.Errorf("workload trace: marshal spec: %w", err)
	}
	var out bytes.Buffer
	var p artifact.Enc
	p.Bytes(specJSON)
	p.U64(uint64(len(t.Reqs)))
	p.U64(t.Fingerprint())
	artifact.NewWriter(&out, traceMagic).Record(recTrace, p.B)
	return out.Bytes(), nil
}

// DecodeTrace reads an artifact back by regenerating its spec's trace,
// which must have the recorded request count and fingerprint.
func DecodeTrace(data []byte) (*Trace, error) {
	rr, err := artifact.NewReader(bytes.NewReader(data), int64(len(data)), tracePath, traceMagic)
	if err != nil {
		return nil, err
	}
	typ, body, err := rr.Next()
	if err == io.EOF {
		return nil, artifact.Corrupt(tracePath, "no record after the magic")
	}
	if err != nil {
		return nil, err
	}
	if typ != recTrace {
		return nil, artifact.Corrupt(tracePath, "record type %d, want %d", typ, recTrace)
	}
	d := artifact.Dec{B: body, Path: tracePath}
	specJSON, count, print := d.Bytes(), d.U64(), d.U64()
	if err := d.Done(); err != nil {
		return nil, err
	}
	// The spec is parsed before the next read reuses the payload's buffer.
	spec, err := ParseSpec(specJSON)
	if err != nil {
		return nil, &artifact.CorruptError{Path: tracePath, Detail: "spec", Err: err}
	}
	if canon, err := json.Marshal(spec); err != nil || !bytes.Equal(canon, specJSON) {
		return nil, artifact.Corrupt(tracePath, "spec is not in canonical form")
	}
	if _, _, err := rr.Next(); err != io.EOF {
		if err == nil {
			err = artifact.Corrupt(tracePath, "data after the record")
		}
		return nil, err
	}
	t, err := Generate(spec)
	if err != nil {
		return nil, &artifact.CorruptError{Path: tracePath, Detail: "regenerating the spec", Err: err}
	}
	if got := t.Fingerprint(); uint64(len(t.Reqs)) != count || got != print {
		return nil, artifact.Corrupt(tracePath, "the spec regenerates %d requests, fingerprint %016x; the artifact records %d, %016x",
			len(t.Reqs), got, count, print)
	}
	return t, nil
}
