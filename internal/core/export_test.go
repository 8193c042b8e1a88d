package core

// SourceCount reports how many root sources are registered.
func (r *RootSet) SourceCount() int { return len(r.sources) }

// SetCopySplit replaces the split threshold (bytes; L/4 when zero) and caps
// the payload words one fill moves (uncapped when zero): math.MaxInt64, 0
// never splits a copy, and 1, 1 splits every copy that does not fit in what is
// left of its pause and moves one word per increment.
func (c *Replicating) SetCopySplit(thresholdBytes int64, chunkWords int) {
	c.splitMin, c.chunkWords = thresholdBytes, chunkWords
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
// tests: hiding (a slot of a mutable object's major replica points at its
// referent's replica at once), the gate (a completion attempt that does not
// fit its pause waits for a later one) and the log meter (log replay stops
// when the pause's budget is spent).
func (c *Replicating) SetMetering(hiding, gate, log bool) {
	c.noHiding, c.noGate, c.noLogMeter = !hiding, !gate, !log
}

// MaxFlipDeferrals is the gate's deferral cap.
const MaxFlipDeferrals = maxFlipDeferrals
