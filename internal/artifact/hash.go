package artifact

// Hash64 is the repository's one FNV-1a 64 state. Two mixes are in use and
// both stay, because every committed fingerprint was produced by one of
// them: graph fingerprints fold a whole word per step (Word — FNV-1a's
// xor-multiply with a 64-bit "octet", cheaper and address-free by
// construction), while the checkpoint state fingerprint and
// workload.Trace.Fingerprint are FNV-1a proper over a byte stream in which
// every integer is eight little-endian bytes (U64, Bytes).
type Hash64 uint64

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// NewHash64 returns the FNV-1a offset basis.
func NewHash64() Hash64 { return offset64 }

// Word folds x in one xor-multiply step.
func (h *Hash64) Word(x uint64) { *h = (*h ^ Hash64(x)) * prime64 }

// Bytes folds b octet by octet.
func (h *Hash64) Bytes(b []byte) {
	for _, c := range b {
		h.Word(uint64(c))
	}
}

// U64 folds v as eight little-endian octets.
func (h *Hash64) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.Word(v & 0xff)
		v >>= 8
	}
}

// Bool folds b as U64(1) or U64(0).
func (h *Hash64) Bool(b bool) {
	if b {
		h.U64(1)
	} else {
		h.U64(0)
	}
}
