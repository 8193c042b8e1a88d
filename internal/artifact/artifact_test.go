package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"runtime"
	"testing"
)

const testMagic = "RGCTEST1"

type record struct {
	typ     uint8
	payload []byte
}

func build(recs ...record) []byte {
	var out bytes.Buffer
	w := NewWriter(&out, testMagic)
	for _, r := range recs {
		w.Record(r.typ, r.payload)
	}
	if w.Err() != nil || w.Len() != int64(out.Len()) {
		panic("writer over a bytes.Buffer failed or miscounted")
	}
	return out.Bytes()
}

// parse reads data to its end: the records, or the first error.
func parse(data []byte) ([]record, error) {
	rr, err := NewReader(bytes.NewReader(data), int64(len(data)), "test", testMagic)
	if err != nil {
		return nil, err
	}
	var recs []record
	for {
		typ, payload, err := rr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, record{typ, append([]byte(nil), payload...)})
	}
}

var sample = []record{
	{1, []byte("header")},
	{2, nil},
	{2, bytes.Repeat([]byte{0xab}, 3000)},
	{9, []byte{0}},
}

func TestRoundTrip(t *testing.T) {
	data := build(sample...)
	recs, err := parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != len(sample) {
		t.Fatalf("read %d records, wrote %d", len(recs), len(sample))
	}
	for i, r := range recs {
		if r.typ != sample[i].typ || !bytes.Equal(r.payload, sample[i].payload) {
			t.Errorf("record %d: read (%d, %d bytes), wrote (%d, %d bytes)", i, r.typ, len(r.payload), sample[i].typ, len(sample[i].payload))
		}
	}
	if recs, err := parse([]byte(testMagic)); err != nil || len(recs) != 0 {
		t.Errorf("magic alone: %d records, %v; want none and a clean end", len(recs), err)
	}
}

func TestReaderRejectsDamage(t *testing.T) {
	data := build(sample...)
	second, _, _ := SpanAt(data, len(testMagic), len(testMagic)+20) // header record is 19 bytes
	clone := func() []byte { return append([]byte(nil), data...) }
	flip := func(at int) []byte { b := clone(); b[at] ^= 1; return b }
	cases := map[string][]byte{
		"empty":              nil,
		"short magic":        data[:5],
		"wrong magic":        flip(3),
		"flipped ordinal":    flip(second),
		"flipped type":       flip(second + 4),
		"flipped length":     flip(second + 5),
		"flipped payload":    flip(len(data) - 40),
		"flipped checksum":   flip(len(data) - 1),
		"truncated header":   data[:second+4],
		"truncated payload":  data[:len(data)-9],
		"truncated checksum": data[:len(data)-2],
		"duplicated record":  append(clone(), data[second:second+frameLen]...),
		"dropped record":     append(clone()[:second], data[second+frameLen:]...),
	}
	for name, bad := range cases {
		_, err := parse(bad)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: parse returned %v, want a *CorruptError", name, err)
		} else if ce.Path != "test" {
			t.Errorf("%s: error names %q, want the reader's path", name, ce.Path)
		}
	}
}

// TestTornLengthAllocatesNothing: a frame header whose length word claims a
// gibibyte must be refused against what is left of the input, not believed
// and allocated for.
func TestTornLengthAllocatesNothing(t *testing.T) {
	data := []byte(testMagic)
	data = binary.LittleEndian.AppendUint32(data, 0)     // seq
	data = append(data, 2)                               // type
	data = binary.LittleEndian.AppendUint32(data, 1<<30) // len
	data = binary.LittleEndian.AppendUint32(data, 0)     // where a crc would be
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := parse(data)
	runtime.ReadMemStats(&after)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("parse returned %v, want a *CorruptError", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting a torn length word allocated %d bytes", got)
	}
}

func TestSpanAt(t *testing.T) {
	data := build(sample...)
	off := len(testMagic)
	for i, r := range sample {
		end := off + frameLen + len(r.payload)
		for _, at := range []int{off, end - 1} {
			if lo, hi, ok := SpanAt(data, len(testMagic), at); !ok || lo != off || hi != end {
				t.Errorf("record %d, offset %d: span [%d,%d) ok=%v, want [%d,%d)", i, at, lo, hi, ok, off, end)
			}
		}
		off = end
	}
	if _, _, ok := SpanAt(data, len(testMagic), len(data)); ok {
		t.Error("an offset past the last frame has a span")
	}
	if _, _, ok := SpanAt(data[:len(data)-1], len(testMagic), len(data)-5); ok {
		t.Error("a frame cut short has a span")
	}
}

func TestPayloadRoundTripAndLatch(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 63)
	e.I64(-2)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte("spec"))
	e.Bytes(nil)

	d := Dec{B: e.B, Path: "p"}
	if d.U8() != 7 || d.U32() != 0xdeadbeef || d.U64() != 1<<63 || d.I64() != -2 ||
		!d.Bool() || d.Bool() || string(d.Bytes()) != "spec" || len(d.Bytes()) != 0 {
		t.Fatal("fields did not round-trip")
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done after an exact read: %v", err)
	}

	for name, tc := range map[string]struct {
		payload []byte
		read    func(*Dec)
	}{
		"underflow":       {[]byte{1, 2, 3}, func(d *Dec) { d.U32() }},
		"field past end":  {[]byte{9, 0, 0, 0, 'x'}, func(d *Dec) { d.Bytes() }},
		"huge field":      {[]byte{0xff, 0xff, 0xff, 0xff}, func(d *Dec) { d.Bytes() }},
		"boolean 2":       {[]byte{2}, func(d *Dec) { d.Bool() }},
		"trailing bytes":  {[]byte{1, 2}, func(d *Dec) { d.U8() }},
		"latched forever": {[]byte{1}, func(d *Dec) { d.U64(); d.U8() }},
	} {
		d := Dec{B: tc.payload, Path: "p"}
		tc.read(&d)
		var ce *CorruptError
		if err := d.Done(); !errors.As(err, &ce) || ce.Path != "p" {
			t.Errorf("%s: Done returned %v, want a *CorruptError naming the path", name, err)
		}
		if d.U64() != 0 || d.Bytes() != nil {
			t.Errorf("%s: reads after the failure returned data", name)
		}
	}
}

// TestHash64 ties the byte-stream mix to the standard library's FNV-1a and
// pins the word mix, which has no library counterpart.
func TestHash64(t *testing.T) {
	ref := fnv.New64a()
	h := NewHash64()
	if uint64(h) != ref.Sum64() {
		t.Fatalf("offset basis %#x, hash/fnv %#x", uint64(h), ref.Sum64())
	}
	h.Bytes([]byte("canonical spec"))
	ref.Write([]byte("canonical spec"))
	for _, v := range []uint64{0, 1, 0x0123456789abcdef, ^uint64(0)} {
		h.U64(v)
		ref.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	h.Bool(true)
	h.Bool(false)
	ref.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if uint64(h) != ref.Sum64() {
		t.Errorf("byte-stream mix %#x, hash/fnv over the same bytes %#x", uint64(h), ref.Sum64())
	}

	w := NewHash64()
	w.Word(4)
	w.Word(0x0123456789abcdef)
	want := uint64(14695981039346656037)
	for _, x := range []uint64{4, 0x0123456789abcdef} {
		want = (want ^ x) * 1099511628211
	}
	if uint64(w) != want {
		t.Errorf("word mix %#x, want %#x", uint64(w), want)
	}
}

// FuzzFrameReader holds the reader to the crash matrix's contract on
// arbitrary bytes: it yields records or a *CorruptError, never panics, and
// what it does accept is canonical — the writer reproduces the input from
// the records.
func FuzzFrameReader(f *testing.F) {
	good := build(sample...)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), good[len(testMagic):]...))
	f.Add([]byte(testMagic))
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(testMagic), 0, 0, 0, 0, 1), 1<<30))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := parse(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if !bytes.Equal(build(recs...), data) {
			t.Fatalf("accepted %d bytes that the writer does not reproduce from their %d records", len(data), len(recs))
		}
	})
}
