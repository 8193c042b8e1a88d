package workload

import (
	"repligc/internal/rig"
	"repligc/internal/simtime"
)

// pin_test.go predates the shared runtime constructor and stays untouched as
// the pin it is: these two names keep its NewRuntime call compiling against
// the one configuration struct and the one collector table.
type RuntimeOptions = rig.Config

var CollectorRT = rig.RT

// pauseOverlap is the test seam onto the engine's intrusion kernel: the pause
// time overlapping [a, b], exactly as buildLeg attributes it to a request.
func pauseOverlap(pauses []simtime.Pause, a, b simtime.Duration) simtime.Duration {
	return simtime.NewPauseIndex(pauses).Between(a, b)
}
