package analysis

// summaries.go is the interprocedural layer of gclint: a package-level call
// graph over everything the loader hands Run, plus a fixpoint pass that
// computes one transitive per-function fact (DESIGN.md, "Machine-checked
// invariants"):
//
//   - may-flip: the function can transitively reach a collection flip
//     (Heap.SwapOld, Space.Reset, or any collector entry point), after which
//     raw heap.Values held in Go locals may point into a condemned space.
//
// The loader gives every package one *types.Package, so a call into another
// loaded package, or of a generic (resolved to its declaration), reaches its
// callee's summary. A builtin table keyed by qualified name supplies what the
// graph cannot derive: the primitives the fact bottoms out at, interface
// dispatch through core.Collector, whose methods have no body, and callees
// outside the loaded set, as when a test loads a single fixture package.

import (
	"fmt"
	"go/ast"
	"go/types"
)

const (
	heapPkgPath       = "repligc/internal/heap"
	corePkgPath       = "repligc/internal/core"
	stopcopyPkgPath   = "repligc/internal/stopcopy"
	checkpointPkgPath = "repligc/internal/checkpoint"
)

// FuncFacts is the computed interprocedural summary of one function.
type FuncFacts struct {
	MayFlip bool
	// FlipVia names the root primitive that introduced the fact, for
	// diagnostics ("reaches Heap.SwapOld").
	FlipVia string
}

// CallSite is one resolved static call inside a function body.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
}

// FuncInfo is the call-graph node for one declared function.
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Facts FuncFacts
	Calls []CallSite
}

// Index is the shared interprocedural state for one Run: built once from the
// loaded package set and handed to every rule through Pass.Index.
type Index struct {
	funcs []*FuncInfo // deterministic: package, file, declaration order
	byObj map[*types.Func]*FuncInfo
}

// builtinFacts supplies base facts for callees by qualified name (see
// funcKey), covering interface dispatch and callees whose declarations are
// outside the loaded set. Map lookups only — never ranged.
var builtinFacts = map[string]FuncFacts{
	// The flip primitives themselves.
	heapPkgPath + ".Heap.SwapOld": {MayFlip: true, FlipVia: "Heap.SwapOld"},
	heapPkgPath + ".Space.Reset":  {MayFlip: true, FlipVia: "Space.Reset"},

	// The mutator allocation API: the collector may run (and flip) inside the
	// call.
	corePkgPath + ".Mutator.Alloc":           {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},
	corePkgPath + ".Mutator.MustAlloc":       {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},
	corePkgPath + ".Mutator.AllocString":     {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},
	corePkgPath + ".Mutator.MustAllocString": {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},
	corePkgPath + ".Mutator.AllocBytes":      {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},
	corePkgPath + ".Mutator.MustAllocBytes":  {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},

	// Collector interface dispatch: any implementation may collect, copy
	// (allocate in to-space) and flip.
	corePkgPath + ".Collector.CollectForAlloc":           {MayFlip: true, FlipVia: "Collector.CollectForAlloc"},
	corePkgPath + ".Collector.AfterAlloc":                {MayFlip: true, FlipVia: "Collector.AfterAlloc"},
	corePkgPath + ".Collector.FinishCycles":              {MayFlip: true, FlipVia: "Collector.FinishCycles"},
	corePkgPath + ".EmergencyCollector.CollectEmergency": {MayFlip: true, FlipVia: "EmergencyCollector.CollectEmergency"},
}

// BuildIndex constructs the call graph over pkgs and runs the summary
// fixpoint. It is built once per Run and shared by all rules.
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{byObj: make(map[*types.Func]*FuncInfo)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
					fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
					idx.funcs = append(idx.funcs, fi)
					idx.byObj[obj] = fi
				}
			}
		}
	}
	for _, fi := range idx.funcs {
		ast.Inspect(fi.Decl, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeOf(fi.Pkg.Info, call); callee != nil {
					fi.Calls = append(fi.Calls, CallSite{Call: call, Callee: callee})
				}
			}
			return true
		})
	}
	idx.fixpointFacts()
	return idx
}

// CalleeFacts merges the builtin base facts for callee with its computed
// summary (when its declaration is in the loaded set).
func (idx *Index) CalleeFacts(callee *types.Func) FuncFacts {
	var out FuncFacts
	if callee == nil {
		return out
	}
	if bf, ok := builtinFacts[funcKey(callee)]; ok {
		out = bf
	}
	if fi, ok := idx.byObj[callee]; ok && fi.Facts.MayFlip && !out.MayFlip {
		out = fi.Facts
	}
	return out
}

// fixpointFacts propagates may-flip up the call graph to convergence.
// Iteration is over the deterministic function slice, so the resulting
// via-strings are stable run to run.
func (idx *Index) fixpointFacts() {
	for changed := true; changed; {
		changed = false
		for _, fi := range idx.funcs {
			if fi.Facts.MayFlip {
				continue
			}
			for _, cs := range fi.Calls {
				if facts := idx.CalleeFacts(cs.Callee); facts.MayFlip {
					fi.Facts, changed = facts, true
					break
				}
			}
		}
	}
}

// PkgFuncs returns the graph nodes declared in pkg, in source order.
func (idx *Index) PkgFuncs(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range idx.funcs {
		if fi.Pkg == pkg {
			out = append(out, fi)
		}
	}
	return out
}

// Summaries renders one line per function ("pkg.Func: may-flip(...)" or
// "pure") in declaration order, for gclint -summaries.
func (idx *Index) Summaries() []string {
	var out []string
	for _, fi := range idx.funcs {
		tag := "pure"
		if fi.Facts.MayFlip {
			tag = "may-flip(" + fi.Facts.FlipVia + ")"
		}
		out = append(out, fmt.Sprintf("%s.%s: %s", fi.Pkg.Path, funcDisplay(fi.Obj), tag))
	}
	return out
}

// --- shared call-graph helpers -------------------------------------------

// unparen strips parenthesis nodes.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves the static callee of call. A call of a generic function
// or method resolves to its declaration (Origin), which is what the index is
// keyed by, not to the instantiation. Interface method calls resolve to the
// interface's method object, which the builtin fact table covers; dynamic
// calls (func values) return nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// funcKey is the qualified name used by the builtin fact tables:
// "pkgpath.Recv.Name" for methods (pointer receivers stripped, interface
// receivers included) and "pkgpath.Name" for plain functions.
func funcKey(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + name
			}
			return obj.Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + name
	}
	return name
}

// funcDisplay is the human-readable name used in diagnostics:
// "(*Type).Name", "Type.Name" or "Name".
func funcDisplay(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			if star != "" {
				return "(" + star + named.Obj().Name() + ")." + name
			}
			return named.Obj().Name() + "." + name
		}
	}
	return name
}
