package core

import "repligc/internal/heap"

// SourceCount reports how many root sources are registered.
func (r *RootSet) SourceCount() int { return len(r.sources) }

// SetCopySplit switches fill's split off (whole) and caps the payload words
// one fill moves (uncapped when zero): true, 0 never splits a copy, and
// false, 1 splits every copy that would cross its pause's deadline and moves
// one word per increment.
func (c *Replicating) SetCopySplit(whole bool, chunkWords int) {
	c.copyWhole, c.chunkWords = whole, chunkWords
}

// SetMinorLimits replaces the paper's A, the nursery expansion a pause grants
// an incremental collection awaiting completion (L/2 when zero), and the
// number of pauses one incremental minor collection may span before it is
// forced to complete (maxMinorPauses when zero).
func (c *Replicating) SetMinorLimits(expandBytes int64, maxPauses int) {
	c.expandMin, c.pauseCap = expandBytes, maxPauses
}

// CopyInFlight reports the progress of the major generation's in-flight copy:
// payload words copied, payload words in all, and whether there is one.
func (c *Replicating) CopyInFlight(major bool) (next, words int, ok bool) {
	g := &c.minor
	if major {
		g = &c.major
	}
	return g.inflight.next, g.inflight.words, g.inflight.replica != 0
}

// SetMetering switches three mechanisms of the pause bound, all on outside
// tests: hiding (a slot of a major replica no visible slot was redirected to
// points at its referent's replica at once; off, every replica is visible
// and nothing is exposed), the gate (a completion attempt that does not
// fit its pause waits for a later one) and the log meter (log replay stops
// when the pause's budget is spent).
func (c *Replicating) SetMetering(hiding, gate, log bool) {
	c.noHiding, c.noGate, c.noLogMeter = !hiding, !gate, !log
}

// MaxFlipDeferrals is the gate's deferral cap.
const MaxFlipDeferrals = maxFlipDeferrals

// MinorScan reports whether a minor collection is active and the header word
// its Cheney scan has reached.
func (c *Replicating) MinorScan() (active bool, scan uint64) {
	return c.minor.active, c.minor.scan
}

// ColdGraphDigest is GraphDigest on a fresh visit table, leaving the spare
// where it is.
func (m *Mutator) ColdGraphDigest(enumerate func(mix func(uint64), walk func(heap.Value))) uint64 {
	return newGraphDigest().run(m, enumerate)
}

// ExposeWalkPending reports how many jobs the major's exposure walk has left
// on its stack: non-zero when a pause's budget ran out mid-walk.
func (c *Replicating) ExposeWalkPending() int { return len(c.major.walk) }
