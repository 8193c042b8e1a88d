package simtime

import "testing"

// TestPauseIndex checks the integer kernel on a hand-built list: pauses
// [10,14), [14,20) (adjacent) and [30,31) inside [0,40].
func TestPauseIndex(t *testing.T) {
	x := NewPauseIndex([]Pause{{At: 10, Length: 4}, {At: 14, Length: 6}, {At: 30, Length: 1}})
	if x.Total() != 11 {
		t.Fatalf("Total = %d, want 11", x.Total())
	}
	for _, tc := range []struct{ t, want Duration }{
		{-5, 0}, {10, 0}, {12, 2}, {14, 4}, {20, 10}, {25, 10}, {31, 11}, {99, 11},
	} {
		if got := x.BusyBefore(tc.t); got != tc.want {
			t.Errorf("BusyBefore(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	for _, tc := range []struct{ a, b, want Duration }{
		{0, 40, 11}, {12, 16, 4}, {19, 31, 2}, {20, 30, 0}, {16, 12, 0}, {15, 15, 0},
	} {
		if got := x.Between(tc.a, tc.b); got != tc.want {
			t.Errorf("Between(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	for _, tc := range []struct{ lo, hi, w, want Duration }{
		{0, 40, 5, 5},   // inside the merged [10,20) run
		{0, 40, 10, 10}, // exactly it
		{0, 40, 21, 11}, // [10,31] reaches the third pause
		{0, 40, 40, 11}, // the whole interval
		{22, 40, 5, 1},  // only the last pause in range
		{32, 40, 4, 0},  // none
		{0, 12, 10, 2},  // clamped to end at hi
		{12, 40, 3, 3},  // clamped to start at lo
	} {
		if got := x.MaxBusy(tc.lo, tc.hi, tc.w); got != tc.want {
			t.Errorf("MaxBusy(%d, %d, %d) = %d, want %d", tc.lo, tc.hi, tc.w, got, tc.want)
		}
	}
	if e := NewPauseIndex(nil); e.Total() != 0 || e.BusyBefore(7) != 0 || e.MaxBusy(0, 10, 3) != 0 {
		t.Error("the empty index reports pause time")
	}
}

// TestMMUFromPausesEmptyPauseSharingAStart: an empty pause that shares its
// start with a real one used to be sorted after it (the sort looked at starts
// alone), and the lookup of pause time before an instant then took the empty
// pause for the last one begun and over-counted: 0 here instead of 2/15.
func TestMMUFromPausesEmptyPauseSharingAStart(t *testing.T) {
	for _, ps := range [][]Pause{
		{{At: 26, Length: 10}, {At: 26, Length: 0}, {At: 12, Length: 9}, {At: 4, Length: 6}},
		{{At: 26, Length: 0}, {At: 26, Length: 10}, {At: 4, Length: 6}, {At: 12, Length: 9}},
	} {
		if got, want := MMUFromPauses(ps, 77, 15), float64(15-13)/15; got != want {
			t.Errorf("MMUFromPauses(%v, 77, 15) = %v, want %v", ps, got, want)
		}
	}
}
