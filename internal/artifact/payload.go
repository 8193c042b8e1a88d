package artifact

import "encoding/binary"

// Enc appends little-endian fields to a record payload. Hand B to
// Writer.Record, then truncate or drop it.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }

// Bool encodes one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes encodes a u32 length, then the bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Dec consumes a record payload field by field. The first failure latches:
// later reads return zero values, and Err and Done report it, so a decoder
// checks once per record rather than once per field.
type Dec struct {
	B    []byte
	Path string // for the *CorruptError
	err  error
}

// take consumes n bytes, or latches an underflow and returns nil.
func (d *Dec) take(n uint32) []byte {
	if d.err == nil && uint64(len(d.B)) < uint64(n) {
		d.err = Corrupt(d.Path, "payload underflow: %d bytes wanted, %d left", n, len(d.B))
	}
	if d.err != nil {
		return nil
	}
	b := d.B[:n]
	d.B = d.B[n:]
	return b
}

func (d *Dec) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Dec) I64() int64 { return int64(d.U64()) }

// Bool decodes one byte and rejects anything but 0 and 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 && d.err == nil {
		d.err = Corrupt(d.Path, "boolean byte %d", v)
	}
	return v == 1
}

// Bytes decodes a u32 length, then that many bytes (aliasing the payload).
func (d *Dec) Bytes() []byte {
	return d.take(d.U32())
}

// Err is the latched failure, if any.
func (d *Dec) Err() error { return d.err }

// Done reports the latched failure or, if the payload was not consumed
// exactly, the trailing bytes.
func (d *Dec) Done() error {
	if d.err == nil && len(d.B) != 0 {
		d.err = Corrupt(d.Path, "%d trailing payload bytes", len(d.B))
	}
	return d.err
}
