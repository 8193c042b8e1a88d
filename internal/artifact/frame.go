// Package artifact is the one kit every on-disk artifact of the repository is
// built from: the checkpoint snapshot and WAL files and the serving-trace
// artifact share its frame codec and payload encoder, and every fingerprint
// shares its FNV-1a state. It is a leaf — standard library only, no file
// access — so any package may import it.
//
// An artifact is a magic string followed by framed records:
//
//	frame := seq u32 | type u8 | len u32 | payload | crc u32
//
// All integers are little-endian; crc is the IEEE CRC-32 of the frame's
// first 9+len bytes; seq is the record's ordinal within the artifact.
// Readers require consecutive ordinals, so a duplicated, dropped or reordered
// record is detected even when its checksum is intact. What the record types
// and payloads mean belongs to the package that owns the artifact.
package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	headerLen = 9             // seq, type, len
	frameLen  = headerLen + 4 // a frame's bytes beyond its payload
)

// CorruptError is the typed error for any damaged, truncated or inconsistent
// artifact. A decoder either yields exactly what was encoded or fails with
// one of these; there is no third outcome.
type CorruptError struct {
	Path   string // the offending file, or a name for an in-memory artifact
	Detail string // what was wrong
	Err    error  // underlying cause, if any
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%s: %s: %v", e.Path, e.Detail, e.Err)
	}
	return fmt.Sprintf("%s: %s", e.Path, e.Detail)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CorruptError) Unwrap() error { return e.Err }

// Corrupt builds a *CorruptError with a formatted detail.
func Corrupt(path, format string, args ...any) *CorruptError {
	return &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
}

// Writer frames records onto an io.Writer, numbering them. The first write
// error latches; Err reports it.
type Writer struct {
	w   io.Writer
	seq uint32
	n   int64
	err error
	hdr [headerLen]byte
}

// NewWriter starts an artifact on w by writing its magic.
func NewWriter(w io.Writer, magic string) *Writer {
	fw := &Writer{w: w}
	fw.write([]byte(magic))
	return fw
}

func (fw *Writer) write(b []byte) {
	if fw.err != nil {
		return
	}
	var n int
	n, fw.err = fw.w.Write(b)
	fw.n += int64(n)
}

// Record frames one payload. The payload slice is not retained.
func (fw *Writer) Record(typ uint8, payload []byte) {
	binary.LittleEndian.PutUint32(fw.hdr[0:], fw.seq)
	fw.hdr[4] = typ
	binary.LittleEndian.PutUint32(fw.hdr[5:], uint32(len(payload)))
	sum := crc32.Update(crc32.ChecksumIEEE(fw.hdr[:]), crc32.IEEETable, payload)
	fw.write(fw.hdr[:])
	fw.write(payload)
	fw.write(binary.LittleEndian.AppendUint32(fw.hdr[:0], sum))
	fw.seq++
}

// Len is the number of bytes written so far, magic included.
func (fw *Writer) Len() int64 { return fw.n }

// Err is the first write error, if any.
func (fw *Writer) Err() error { return fw.err }

// Reader parses framed records from a stream, enforcing consecutive ordinals
// and checksums. Every malformation is a *CorruptError naming path.
type Reader struct {
	r    io.Reader
	path string
	left int64 // input bytes not yet consumed
	seq  uint32
	buf  []byte // payload storage, reused across records
}

// NewReader checks the artifact's magic and returns a reader over its
// records. size is the length of the whole input — len of a byte slice, Stat
// of a file: a frame cannot claim more than what is left of it, so a torn
// length word is rejected before anything is allocated on its say-so.
func NewReader(r io.Reader, size int64, path, magic string) (*Reader, error) {
	rr := &Reader{r: r, path: path, left: size}
	got, err := rr.read(len(magic), "magic")
	if err != nil {
		return nil, err
	}
	if string(got) != magic {
		return nil, Corrupt(path, "bad magic %q, want %q", got, magic)
	}
	return rr, nil
}

// read consumes the next n bytes into the reader's buffer.
func (rr *Reader) read(n int, what string) ([]byte, error) {
	if int64(n) > rr.left {
		return nil, Corrupt(rr.path, "truncated %s: %d bytes wanted, %d left", what, n, rr.left)
	}
	if cap(rr.buf) < n {
		rr.buf = make([]byte, n)
	}
	b := rr.buf[:n]
	if _, err := io.ReadFull(rr.r, b); err != nil {
		return nil, &CorruptError{Path: rr.path, Detail: "truncated " + what, Err: err}
	}
	rr.left -= int64(n)
	return b, nil
}

// Next returns the next record. The payload is valid until the following
// call. A bare io.EOF signals the clean end of the input; anything else
// wrong is a *CorruptError.
func (rr *Reader) Next() (typ uint8, payload []byte, err error) {
	if rr.left == 0 {
		return 0, nil, io.EOF
	}
	hdr, err := rr.read(headerLen, "record header")
	if err != nil {
		return 0, nil, err
	}
	seq := binary.LittleEndian.Uint32(hdr[0:])
	typ = hdr[4]
	n := binary.LittleEndian.Uint32(hdr[5:])
	sum := crc32.ChecksumIEEE(hdr)
	body, err := rr.read(int(n)+4, "record payload and checksum")
	if err != nil {
		return 0, nil, err
	}
	payload = body[:n]
	if crc32.Update(sum, crc32.IEEETable, payload) != binary.LittleEndian.Uint32(body[n:]) {
		return 0, nil, Corrupt(rr.path, "record %d (type %d): checksum mismatch", seq, typ)
	}
	if seq != rr.seq {
		return 0, nil, Corrupt(rr.path, "record ordinal %d, want %d (duplicated, dropped or reordered record)", seq, rr.seq)
	}
	rr.seq++
	return typ, payload, nil
}

// SpanAt walks the framing of a whole in-memory artifact, lengths only, and
// returns the [lo, hi) byte range of the frame covering offset at (the first
// frame when at lies in the magic). ok is false when the framing stops
// parsing before reaching at (already-damaged input).
func SpanAt(data []byte, magicLen, at int) (lo, hi int, ok bool) {
	for off := magicLen; off+frameLen <= len(data); {
		end := off + frameLen + int(binary.LittleEndian.Uint32(data[off+5:]))
		if end > len(data) {
			break
		}
		if at < end {
			return off, end, true
		}
		off = end
	}
	return 0, 0, false
}
