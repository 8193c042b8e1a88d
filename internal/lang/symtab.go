package lang

import (
	"repligc/internal/core"
)

// SymTab interns identifiers. Each symbol's name is also allocated as a
// string object on the simulated heap (kept live through a heap list), so
// the compiler's symbol handling contributes compiler-shaped allocation to
// the Comp workload, as SML/NJ's atom tables did.
type SymTab struct {
	m     *core.Mutator
	ids   index
	names []string
	strs  core.Handle // heap list of heap strings
}

// NewSymTab builds an empty table over m. The table owns one handle slot
// for the lifetime of the compilation.
func NewSymTab(m *core.Mutator) *SymTab {
	return &SymTab{m: m, strs: listNil(m)}
}

// reserve makes room for n more symbols, rebuilding the index over what the
// table holds and moving the names only when their array is too short.
// Parse reserves the census's identifier count, which no parse outgrows;
// only a table used without Parse grows, doubling, in Intern.
func (s *SymTab) reserve(n int) {
	n += len(s.names)
	s.ids.reset(n)
	for id, name := range s.names {
		s.ids.slots[s.ids.find(name, s.names)] = int32(id) + 1
	}
	if cap(s.names) < n {
		s.names = append(make([]string, 0, n), s.names...)
	}
}

// Intern returns the symbol id for name, creating it if needed.
func (s *SymTab) Intern(name string) int32 {
	i := s.ids.find(name, s.names)
	if i >= 0 && s.ids.slots[i] != 0 {
		return s.ids.slots[i] - 1
	}
	if len(s.names) == cap(s.names) {
		s.reserve(len(s.names) + 8)
		i = s.ids.find(name, s.names)
	}
	id := int32(len(s.names))
	s.ids.slots[i] = id + 1
	s.names = append(s.names, name)

	mark := s.m.HandleMark()
	hs := s.m.PushHandle(s.m.MustAllocString([]byte(name)))
	cell := listCons(s.m, hs, s.strs)
	s.m.SetHandleVal(s.strs, s.m.HandleVal(cell))
	s.m.PopHandles(mark)
	return id
}

// Name returns the symbol's spelling.
func (s *SymTab) Name(id int32) string {
	if int(id) < len(s.names) {
		return s.names[id]
	}
	return "?"
}

// Len reports the number of interned symbols.
func (s *SymTab) Len() int { return len(s.names) }

// index finds a string in a list by its hash: open addressing with linear
// probing, each slot the string's position in the list + 1, 0 where empty.
// Its length is a power of two above one and a half times the most strings
// it was made for, so a probe always ends at the string or an empty slot.
type index struct{ slots []int32 }

// reset empties the index and sizes it for n strings, in its own array when
// that is long enough.
func (x *index) reset(n int) {
	x.slots = fit(x.slots, indexSize(n))[:indexSize(n)]
	clear(x.slots)
}

func indexSize(n int) int {
	size := 8
	for size < n+n/2+1 {
		size *= 2
	}
	return size
}

// find returns s's slot: the one holding it, or the empty one it would take;
// -1 if the index is empty. The hash is 32-bit FNV-1a.
func (x index) find(s string, list []string) int {
	if len(x.slots) == 0 {
		return -1
	}
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	mask := len(x.slots) - 1
	i := int(h) & mask
	for x.slots[i] != 0 && list[x.slots[i]-1] != s {
		i = (i + 1) & mask
	}
	return i
}
