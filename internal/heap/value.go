// Package heap implements the simulated word-addressed heap that every other
// component runs on. It reproduces the SML/NJ object model the paper depends
// on: small tagged values, a descriptor (header) word immediately before each
// object, and — crucially for replication copying — the convention that the
// forwarding pointer is merged into the header word (paper §3.2): descriptors
// always have their low bit set, so an even header slot *is* a forwarding
// pointer to the replica.
//
// The heap is a flat arena of 64-bit words carved into a nursery and two old
// semispaces, matching SML/NJ's two-level generational layout (paper fig. 3).
package heap

import "fmt"

// Value is a tagged machine word. Bit 0 distinguishes immediates from
// pointers, exactly as in SML/NJ:
//
//   - bit0 = 1: an immediate 63-bit signed integer;
//   - bit0 = 0: a pointer, encoded as the byte offset of the object's first
//     payload word within the arena (word-aligned, so bits 0..2 are zero).
//
// The zero Value is Nil, a distinguished non-pointer used for ML unit and
// for uninitialised slots; arena offset 0 is never handed out.
type Value uint64

// Nil is the distinguished empty value.
const Nil Value = 0

// FromInt makes an immediate integer value.
func FromInt(i int64) Value { return Value(uint64(i)<<1 | 1) }

// FromBool makes an immediate boolean (false=0, true=1).
func FromBool(b bool) Value {
	if b {
		return FromInt(1)
	}
	return FromInt(0)
}

// IsInt reports whether v is an immediate integer.
func (v Value) IsInt() bool { return v&1 == 1 }

// Int returns the immediate integer stored in v. It is the caller's
// responsibility to check IsInt first; on a pointer the result is garbage.
func (v Value) Int() int64 { return int64(v) >> 1 }

// Bool interprets an immediate as a boolean (nonzero = true).
func (v Value) Bool() bool { return v.IsInt() && v.Int() != 0 }

// IsPtr reports whether v is a (non-nil) heap pointer.
func (v Value) IsPtr() bool { return v != Nil && v&1 == 0 }

// index returns the arena word index of the first payload word.
func (v Value) index() uint64 { return uint64(v) >> 3 }

// WordIndex returns the arena word index of payload word slot of object p.
// It exists for the checkpoint subsystem, which addresses snapshot segments
// and patch records by absolute arena index; everything else goes through
// Load/Store.
func WordIndex(p Value, slot int) uint64 { return p.index() + uint64(slot) }

// ptrFromIndex builds a pointer Value from an arena word index.
func ptrFromIndex(idx uint64) Value { return Value(idx << 3) }

// String renders the value for debugging.
func (v Value) String() string {
	switch {
	case v == Nil:
		return "nil"
	case v.IsInt():
		return fmt.Sprintf("%d", v.Int())
	default:
		return fmt.Sprintf("@%#x", uint64(v))
	}
}
