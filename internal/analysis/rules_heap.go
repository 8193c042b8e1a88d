package analysis

import (
	"go/ast"
	"strings"
)

// BarrierRule enforces the write-barrier discipline of paper §2.1: outside
// the heap and collector packages, no code may touch heap words directly.
// Every mutation must flow through Mutator.Set/SetByte/SetByteRange/Init so
// the mutation log stays complete — the replication collector is silently
// incorrect without it — and every read must flow through Mutator.Get/
// GetByte so the read path stays raw-by-construction (no hidden forwarding,
// no uncharged simulated cost).
type BarrierRule struct{}

// Name implements Rule.
func (*BarrierRule) Name() string { return "barrier" }

// Doc implements Rule.
func (*BarrierRule) Doc() string {
	return "heap words may only be touched through the Mutator write barrier outside the collector packages"
}

// heapWriters are Heap methods that mutate arena words without logging.
var heapWriters = map[string]string{
	"Store":      "Mutator.Set",
	"StoreByte":  "Mutator.SetByte",
	"SetBytes":   "Mutator.SetByteRange",
	"StoreBytes": "Mutator.SetByteRange",
	"SetForward": "(collector-only)",
	"AllocIn":    "Mutator.Alloc",
	"CopyObject": "(collector-only)",
	"SwapOld":    "(collector-only)",
	// The chunked copy kernel: the reserve installs the forwarding word.
	"ReserveReplica": "(collector-only)",
	"CopyWords":      "(collector-only)",
}

// heapReaders are Heap methods that read arena words without going through
// the mutator interface.
var heapReaders = map[string]string{
	"Load":      "Mutator.Get",
	"LoadByte":  "Mutator.GetByte",
	"Bytes":     "Mutator.Bytes",
	"LoadBytes": "Mutator.GetByteRange",
	"RawHeader": "Mutator.Header",
}

// Appraise implements Rule.
func (r *BarrierRule) Appraise(pass *Pass) {
	if collectorPkgs[pass.Pkg.Path] {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, onHeap := selectorOnHeap(pass.Pkg.Info, sel)
			if !onHeap {
				return true
			}
			switch {
			case name == "Arena":
				pass.Reportf(sel.Sel.Pos(),
					"direct arena access outside the collector packages; heap words are owned by internal/heap, internal/core and internal/stopcopy")
			case heapWriters[name] != "":
				pass.Reportf(sel.Sel.Pos(),
					"Heap.%s bypasses the logging write barrier (paper §2.1: every mutation must reach the mutation log); use %s",
					name, heapWriters[name])
			case heapReaders[name] != "":
				pass.Reportf(sel.Sel.Pos(),
					"raw heap read Heap.%s outside the collector packages; use %s", name, heapReaders[name])
			}
			return true
		})
	}
}

// ForwardRule enforces forwarding-pointer hygiene, the from-space invariant
// of DESIGN §4: the mutator always addresses from-space originals, so
// ordinary reads must never follow a forwarding pointer. Only getheader-class
// operations (Mutator.Header and friends: length primitives, polymorphic
// equality) may observe forwarding, and only the collectors may manipulate
// it. Concretely: Heap.ForwardAddr / ResolveForward / IsForwarded are
// (a) forbidden entirely outside the collector packages and (b) forbidden
// inside them from any function on the raw read path (Get*/Load* names).
type ForwardRule struct{}

// Name implements Rule.
func (*ForwardRule) Name() string { return "forward" }

// Doc implements Rule.
func (*ForwardRule) Doc() string {
	return "only collectors and getheader-class functions may observe forwarding pointers (from-space invariant)"
}

// forwardObservers are the Heap methods that expose forwarding state.
var forwardObservers = map[string]bool{
	"ForwardAddr":    true,
	"ResolveForward": true,
	"IsForwarded":    true,
}

// Appraise implements Rule.
func (r *ForwardRule) Appraise(pass *Pass) {
	inside := collectorPkgs[pass.Pkg.Path]
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, onHeap := selectorOnHeap(pass.Pkg.Info, sel)
			if !onHeap || !forwardObservers[name] {
				return true
			}
			if !inside {
				pass.Reportf(sel.Sel.Pos(),
					"Heap.%s outside the collector packages: mutator code must not observe forwarding (from-space invariant); use Mutator.Header for getheader",
					name)
				return true
			}
			fn := enclosingFuncName(pass.Pkg.Files, sel.Pos())
			lower := strings.ToLower(fn)
			if strings.HasPrefix(lower, "get") || strings.HasPrefix(lower, "load") {
				pass.Reportf(sel.Sel.Pos(),
					"%s calls Heap.%s: raw read paths must not follow forwarding (from-space invariant); only getheader-class functions may",
					fn, name)
			}
			return true
		})
	}
}
