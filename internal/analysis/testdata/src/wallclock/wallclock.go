// Package fixwallclock exercises the wallclock rule: host-time functions are
// banned from simulation-governed packages.
package fixwallclock

import (
	"testing"
	"time"
)

func tick() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}

// Pure duration arithmetic does not observe the wall clock and is fine.
func fine() time.Duration { return 3 * time.Second }

// testing.Benchmark times its argument on the host clock: the same read by
// another door.
func nsPerOp() int64 {
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
	}).NsPerOp()
}
