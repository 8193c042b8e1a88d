package workload

import "repligc/internal/simtime"

// pauseOverlap is the test seam onto the engine's intrusion kernel: the pause
// time overlapping [a, b], exactly as buildLeg attributes it to a request.
func pauseOverlap(pauses []simtime.Pause, a, b simtime.Duration) simtime.Duration {
	return simtime.NewPauseIndex(pauses).Between(a, b)
}
