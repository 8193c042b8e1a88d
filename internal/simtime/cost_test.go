package simtime

import (
	"math"
	"testing"
)

func TestCopyRateMatchesPaper(t *testing.T) {
	// The paper's DECstation copies at about 2 MB/s (copy+scan combined);
	// Default1993 encodes exactly that: 8 bytes per 4 us.
	got := Default1993().CopyRateBytesPerSec()
	if want := 2e6; math.Abs(got-want) > 1 {
		t.Fatalf("CopyRateBytesPerSec = %v, want %v", got, want)
	}
}
