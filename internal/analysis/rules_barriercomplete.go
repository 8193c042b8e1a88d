package analysis

// The barriercomplete rule: every store into heap-object payload memory
// must reach the logging-barrier API (Mutator.Set/SetByte/SetByteRange/
// Init) on all dataflow paths. The syntactic barrier rule only sees direct
// touches of Heap primitives; this rule uses the interprocedural summaries
// to also catch stores hidden behind call chains — a helper that calls a
// helper that calls Heap.Store is just as much a barrier bypass as the
// direct call, and is invisible file-by-file. Propagation stops at the
// logging boundary (functions that append to the mutation log) and at the
// exported API of the collector packages, whose raw stores are replica
// writes (see summaries.go). The rule therefore subsumes the write-half of
// the barrier rule: every site the barrier rule flags as an unlogged store
// is a call whose callee summary includes unlogged-store.

import "slices"

// BarrierCompleteRule flags calls (outside the collector packages) whose
// callee may transitively store into heap payload without logging.
type BarrierCompleteRule struct{}

// Name implements Rule.
func (*BarrierCompleteRule) Name() string { return "barriercomplete" }

// Doc implements Rule.
func (*BarrierCompleteRule) Doc() string {
	return "every heap payload store must reach the logging barrier on all paths (interprocedural)"
}

// Appraise implements Rule.
func (r *BarrierCompleteRule) Appraise(pass *Pass) {
	if slices.Contains(collectorPkgs, pass.Pkg.Path) {
		return
	}
	for _, fi := range pass.Index.PkgFuncs(pass.Pkg) {
		for _, cs := range fi.Calls {
			facts := pass.Index.CalleeFacts(cs.Callee)
			if !facts.UnloggedStore {
				continue
			}
			name := funcDisplay(cs.Callee)
			via := ""
			if facts.StoreVia != "" && facts.StoreVia != name {
				via = " (reaches " + facts.StoreVia + ")"
			}
			pass.Reportf(cs.Call.Pos(),
				"call to %s stores into heap payload without reaching the logging barrier%s: the replica misses the mutation; route the store through Mutator.Set/SetByte/SetByteRange/Init",
				name, via)
		}
	}
}
