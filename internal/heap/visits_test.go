package heap

import "testing"

// TestVisitsHitKeepsSize: a lookup of a pointer the table holds never grows
// it, even with the table at its load limit, where the next record would.
func TestVisitsHitKeepsSize(t *testing.T) {
	var v Visits
	for i := 1; i <= 768; i++ {
		v.Visit(Value(8*i), uint32(i))
	}
	size := len(v.keys)
	if id, ok := v.Visit(Value(8), 0); !ok || id != 1 || len(v.keys) != size {
		t.Errorf("a hit returns %d, %v and leaves %d slots, want 1, true and %d", id, ok, len(v.keys), size)
	}
	if id, ok := v.Visit(Value(8*769), 769); ok || id != 769 || len(v.keys) != 2*size {
		t.Errorf("a record past the limit returns %d, %v and leaves %d slots, want 769, false and %d", id, ok, len(v.keys), 2*size)
	}
	for i := 1; i <= 769; i++ {
		if id, ok := v.Visit(Value(8*i), 0); !ok || id != uint32(i) {
			t.Fatalf("after growing, pointer %d reads id %d, %v", i, id, ok)
		}
	}
}
