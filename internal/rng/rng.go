// Package rng is the repository's deterministic pseudo-random source: a
// seeded splitmix64 stream with stream splitting. Fault plans, workload
// arrivals and request-profile draws derive from these streams, never from
// implicit global state, so each is a pure function of its seed. The one
// exception outside tests, gctest's Driver and MultiDriver, seeds math/rand
// sources of its own, as deterministic: TestDriverPins, TestMultiDriverPin
// and the benchmark's group4 workload pin those operation streams.
//
// Split(i) is an independent substream, a pure function of the parent's seed
// and i: a workload's arrival, object-size and session draws each consume
// their own sequence, and adding draws to one never perturbs another.
package rng

// Stream is a splitmix64 sequence. The zero value is a valid stream seeded
// with 0; most callers use New.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed. The sequence it produces is
// identical to the classic splitmix64 recurrence starting from that state.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// mix64 is the splitmix64 output function applied to z.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next advances the stream and returns the next 64-bit value.
func (s *Stream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Split returns substream i of the stream's current state without advancing
// it. Split is a pure function of (state, i): the same parent seed always
// yields the same family of substreams, and draws from one substream never
// affect any other.
func (s *Stream) Split(i uint64) *Stream {
	// Decorrelate the child from the parent sequence by pushing the pair
	// (state, i) through the output function twice with distinct offsets.
	return &Stream{state: mix64(mix64(s.state+0x9e3779b97f4a7c15*(i+1)) + 0x6a09e667f3bcc909)}
}

// Uint64n returns a value in [0, n). It panics when n is zero. The modulo
// bias is below 2^-53 for every n the repository uses and is the same on
// every host, which is all determinism requires.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	return s.Next() % n
}

// Intn returns a value in [0, n) as an int. It panics when n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}
