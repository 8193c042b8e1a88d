package simtime

// CostModel fixes the simulated cost of each primitive unit of work. All
// costs are per-unit Durations. The zero value is a valid (free) model, but
// almost all callers want Default1993, which is calibrated to the paper's
// hardware: a 25 MHz DECstation 5000/200 whose collector copied data at
// roughly 2 MB/s, so that copying the L = 100 KB budget takes 50 ms.
type CostModel struct {
	// Mutator-side costs.
	Instruction Duration // one VM instruction or one unit of compiler work
	AllocWord   Duration // per word allocated (bump + initialisation)
	LogWrite    Duration // appending one entry to the mutation log
	HeaderCheck Duration // one getheader forwarding test

	// Collector-side costs.
	CopyWord   Duration // copying one word into to-space
	ScanWord   Duration // scanning one to-space word
	LogScan    Duration // examining one log entry (generational scan)
	LogReapply Duration // reapplying one logged mutation to a replica
	RootUpdate Duration // scanning or atomically updating one root
	FlipEntry  Duration // re-pointing one logged location during a flip
}

// Default1993 reproduces the paper's measured rates.
//
// Copying: 2 MB/s total for copy+scan. Each live word is copied once and
// scanned once, so with 8-byte words each of CopyWord and ScanWord gets
// half the 4 us/word budget. Log costs are sized so that the repeated-log-
// processing experiment of table 2 lands near the paper's CR percentages,
// and mutator instruction cost approximates a 25 MHz machine executing a
// few cycles per bytecode.
func Default1993() CostModel {
	return CostModel{
		Instruction: 80 * Nanosecond,
		AllocWord:   120 * Nanosecond,
		LogWrite:    400 * Nanosecond,
		HeaderCheck: 40 * Nanosecond,
		CopyWord:    2 * Microsecond,
		ScanWord:    2 * Microsecond,
		LogScan:     1 * Microsecond,
		LogReapply:  4 * Microsecond,
		RootUpdate:  1 * Microsecond,
		FlipEntry:   4 * Microsecond,
	}
}

// BytesPerWord is the accounting size of a heap word. The simulated heap
// stores 64-bit words; all of the paper's parameters (N, O, L, A) are given
// in bytes and converted with this constant.
const BytesPerWord = 8

// CopyRateBytesPerSec reports the model's effective copying throughput in
// bytes per second (copy+scan combined), the quantity the paper measures at
// about 2 MB/s. It deliberately excludes log-reapply and root costs.
func (m CostModel) CopyRateBytesPerSec() float64 {
	perWord := m.CopyWord + m.ScanWord
	if perWord <= 0 {
		return 0
	}
	return float64(BytesPerWord) * float64(Second) / float64(perWord)
}
