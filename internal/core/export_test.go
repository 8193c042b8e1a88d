package core

// SourceCount reports how many root sources are registered.
func (r *RootSet) SourceCount() int { return len(r.sources) }
