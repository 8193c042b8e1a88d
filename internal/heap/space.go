package heap

import "fmt"

// Space is a contiguous region of the arena with a bump allocation cursor.
// The nursery and both old-generation semispaces are Spaces.
type Space struct {
	Name string
	Lo   uint64 // first usable word index (inclusive)
	Hi   uint64 // current limit (exclusive); may be below Cap for the nursery
	Cap  uint64 // hard upper bound word index (exclusive)
	Next uint64 // allocation cursor
}

// Reset empties the space.
func (s *Space) Reset() { s.Next = s.Lo }

// Contains reports whether pointer p addresses an object in this space's
// region. Membership is by region, not by liveness: a pointer to the first
// payload word has its header at index-1, so valid object pointers lie in
// (Lo, Cap].
func (s *Space) Contains(p Value) bool {
	if !p.IsPtr() {
		return false
	}
	idx := p.index()
	return idx > s.Lo && idx <= s.Cap
}

// UsedWords reports the number of allocated words (headers included).
func (s *Space) UsedWords() uint64 { return s.Next - s.Lo }

// UsedBytes reports allocated bytes.
func (s *Space) UsedBytes() int64 { return int64(s.UsedWords()) * BytesPerWord }

// FreeWords reports words remaining below the current limit.
func (s *Space) FreeWords() uint64 { return s.Hi - s.Next }

// SetLimitBytes moves the soft limit to b bytes above Lo, clamped to Cap.
// It reports the resulting limit in bytes.
func (s *Space) SetLimitBytes(b int64) int64 {
	w := uint64(b) / BytesPerWord
	if s.Lo+w > s.Cap {
		w = s.Cap - s.Lo
	}
	s.Hi = s.Lo + w
	if s.Hi < s.Next {
		s.Hi = s.Next
	}
	return int64(s.Hi-s.Lo) * BytesPerWord
}

// GrowBytes raises the soft limit by b bytes, clamped to Cap. It reports
// the number of bytes actually added.
func (s *Space) GrowBytes(b int64) int64 {
	w := uint64(b) / BytesPerWord
	if s.Hi+w > s.Cap {
		w = s.Cap - s.Hi
	}
	s.Hi += w
	return int64(w) * BytesPerWord
}

// LimitBytes reports the current soft capacity in bytes.
func (s *Space) LimitBytes() int64 { return int64(s.Hi-s.Lo) * BytesPerWord }

func (s *Space) String() string {
	return fmt.Sprintf("%s[%#x..%#x next=%#x cap=%#x]", s.Name, s.Lo, s.Hi, s.Next, s.Cap)
}
