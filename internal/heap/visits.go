package heap

// Visits is a reachability walk's visit table: the id each pointer the walk
// has reached was first given. It is open addressing with linear probing
// under one fixed multiplicative hash, so a table that has held a graph holds
// one of that size again without allocating, whatever order the walk takes.
// A Go map would not: clearing one reseeds its hash, so each walk splits its
// tables anew. The zero Visits is an empty table.
type Visits struct {
	keys []Value // Nil marks a free slot
	ids  []uint32
	n    int
}

// Visit returns the id v was first visited with and true, or records id as
// v's and returns it and false. v must be a pointer. A hit never grows it.
func (t *Visits) Visit(v Value, id uint32) (uint32, bool) {
	if len(t.keys) > 0 {
		mask := uint64(len(t.keys) - 1)
		i := uint64(v) * 0x9e3779b97f4a7c15 >> 32 & mask
		for t.keys[i] != v && t.keys[i] != Nil {
			i = (i + 1) & mask
		}
		if t.keys[i] == v {
			return t.ids[i], true
		}
		if 4*(t.n+1) <= 3*len(t.keys) {
			t.keys[i], t.ids[i] = v, id
			t.n++
			return id, false
		}
	}
	t.grow()
	return t.Visit(v, id)
}

// Len reports how many pointers the table holds.
func (t *Visits) Len() int { return t.n }

// Clear empties the table and keeps its slots.
func (t *Visits) Clear() {
	if t.n > 0 {
		clear(t.keys)
		t.n = 0
	}
}

// grow doubles the table, from 1 024 slots, and reinserts what it holds.
func (t *Visits) grow() {
	keys, ids := t.keys, t.ids
	size := max(2*len(keys), 1024)
	t.keys, t.ids, t.n = make([]Value, size), make([]uint32, size), 0
	for i, k := range keys {
		if k != Nil {
			t.Visit(k, ids[i])
		}
	}
}
