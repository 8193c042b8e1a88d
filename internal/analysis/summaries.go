package analysis

// summaries.go is the interprocedural layer of gclint: a package-level call
// graph over everything the loader hands Run, plus a fixpoint pass that
// computes transitive per-function summaries. Two facts matter to the
// replication collector's invariants (DESIGN.md, "Machine-checked
// invariants"):
//
//   - may-flip: the function can transitively reach a collection flip
//     (Heap.SwapOld, Space.Reset, or any collector entry point), after which
//     raw heap.Values held in Go locals may point into a condemned space.
//   - unlogged-store: the function can transitively reach a raw store into
//     heap-object payload memory (Heap.Store/StoreByte/SetBytes/SetWord)
//     without passing a logging boundary. The propagation stops
//     at functions that append to the mutation log and at the exported API
//     of the collector packages — inside that boundary, raw stores are the
//     collector's own replica writes, which are correct by construction.
//
// The graph also computes an in-pause summary for the pauseonly rule: a
// function is in-pause when every static call site is dominated by a
// //gclint:pauseentry function. The loader gives every package one
// *types.Package, so a call into another loaded package, or of a generic
// (resolved to its declaration), reaches its callee's summary. A builtin
// table keyed by qualified name supplies what the graph cannot derive: the
// primitives the facts bottom out at, interface dispatch through
// core.Collector, whose methods have no body, and callees outside the loaded
// set, as when a test loads a single fixture package.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const (
	heapPkgPath       = "repligc/internal/heap"
	corePkgPath       = "repligc/internal/core"
	stopcopyPkgPath   = "repligc/internal/stopcopy"
	checkpointPkgPath = "repligc/internal/checkpoint"
)

// FuncFacts is the computed interprocedural summary of one function.
type FuncFacts struct {
	MayFlip       bool
	UnloggedStore bool

	// LogBoundary marks a function that appends to the mutation log on the
	// path containing its stores; unlogged-store propagation stops here.
	LogBoundary bool

	// PauseEntry marks a //gclint:pauseentry function: a collector entry
	// that stops the mutator before doing any work.
	PauseEntry bool
	// InPause reports that every static call site of the function is
	// dominated by a PauseEntry function.
	InPause bool

	// FlipVia/StoreVia name the root primitive that introduced the
	// corresponding fact, for diagnostics ("reaches Heap.SwapOld").
	FlipVia  string
	StoreVia string
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

	// hasCaller / escapes feed the in-pause fixpoint: a function with no
	// known callers, or whose value escapes (method value, callback), can be
	// invoked from anywhere and is never considered pause-dominated.
	hasCaller bool
	escapes   bool
}

// PauseOnlyField is one struct field annotated //gclint:pauseonly.
type PauseOnlyField struct {
	Var       *types.Var
	Invariant string
}

// annotIssue is a malformed gclint annotation found while indexing; the rule
// owning the annotation reports it for the package it appears in.
type annotIssue struct {
	pkg *Package
	pos token.Pos
	msg string
}

// Index is the shared interprocedural state for one Run: built once from the
// loaded package set and handed to every rule through Pass.Index.
type Index struct {
	funcs     []*FuncInfo // deterministic: package, file, declaration order
	byObj     map[*types.Func]*FuncInfo
	pauseOnly map[*types.Var]*PauseOnlyField

	badAnnots []annotIssue

	// calleeIdents are identifiers consumed as the function part of a call;
	// any other use of a tracked function's identifier marks it escaping.
	calleeIdents map[*ast.Ident]bool
}

// builtinFacts supplies base facts for callees by qualified name (see
// funcKey), covering interface dispatch and callees whose declarations are
// outside the loaded set. Map lookups only — never ranged.
var builtinFacts = map[string]FuncFacts{
	// The flip primitives themselves.
	heapPkgPath + ".Heap.SwapOld": {MayFlip: true, FlipVia: "Heap.SwapOld"},
	heapPkgPath + ".Space.Reset":  {MayFlip: true, FlipVia: "Space.Reset"},

	// The replicating collector's copy kernel: the reserve takes room at a
	// to-space frontier (and installs the forwarding word, which the barrier
	// and forward rules police), the fill writes replica payload, which is
	// collector mechanics and no mutation. Neither flips: a heap.Value held
	// across them stays good.
	heapPkgPath + ".Heap.ReserveReplica": {},
	heapPkgPath + ".Heap.CopyWords":      {},

	// Raw payload stores (the mutation-store primitives the write barrier
	// wraps). Header/forwarding writes (SetForward, CopyObject) are collector
	// mechanics, not payload mutations, and are policed by the barrier and
	// forward rules instead.
	heapPkgPath + ".Heap.Store":      {UnloggedStore: true, StoreVia: "Heap.Store"},
	heapPkgPath + ".Heap.StoreByte":  {UnloggedStore: true, StoreVia: "Heap.StoreByte"},
	heapPkgPath + ".Heap.SetBytes":   {UnloggedStore: true, StoreVia: "Heap.SetBytes"},
	heapPkgPath + ".Heap.StoreBytes": {UnloggedStore: true, StoreVia: "Heap.StoreBytes"},
	heapPkgPath + ".Heap.SetWord":    {UnloggedStore: true, StoreVia: "Heap.SetWord"},

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

// boundaryCallees are calls that mark the calling function as a logging
// boundary: its raw stores are mirrored to the mutation log.
var boundaryCallees = map[string]bool{
	corePkgPath + ".Mutator.logMutation": true,
	corePkgPath + ".MutationLog.Append":  true,
}

// BuildIndex constructs the call graph over pkgs and runs the summary
// fixpoints. It is built once per Run and shared by all rules.
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{
		byObj:        make(map[*types.Func]*FuncInfo),
		pauseOnly:    make(map[*types.Var]*PauseOnlyField),
		calleeIdents: make(map[*ast.Ident]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			idx.collectFile(pkg, f)
		}
	}
	for _, fi := range idx.funcs {
		idx.scanFunc(fi)
	}
	idx.markCallersAndEscapes(pkgs)
	idx.fixpointFacts()
	idx.fixpointInPause()
	return idx
}

// collectFile registers the file's function declarations and pauseonly
// field annotations.
func (idx *Index) collectFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
		fi.Facts.PauseEntry = idx.pauseEntryAnnotation(pkg, fd)
		idx.funcs = append(idx.funcs, fi)
		idx.byObj[obj] = fi
	}
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			idx.collectPauseOnlyField(pkg, field)
		}
		return true
	})
}

const (
	pauseOnlyPrefix  = "//gclint:pauseonly"
	pauseEntryPrefix = "//gclint:pauseentry"
)

// pauseEntryAnnotation reports whether fd carries a well-formed
// //gclint:pauseentry annotation; a missing reason is recorded as a
// malformed annotation and does not make the function an entry.
func (idx *Index) pauseEntryAnnotation(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		reason, ok := annotationText(c, pauseEntryPrefix)
		if !ok {
			continue
		}
		if reason == "" {
			idx.badAnnots = append(idx.badAnnots, annotIssue{
				pkg: pkg,
				pos: c.Pos(),
				msg: "//gclint:pauseentry needs a reason: state why the mutator is stopped at this entry",
			})
			return false
		}
		return true
	}
	return false
}

// collectPauseOnlyField records a //gclint:pauseonly annotation from a
// struct field's doc comment or trailing line comment.
func (idx *Index) collectPauseOnlyField(pkg *Package, field *ast.Field) {
	var invariant string
	var pos token.Pos
	found := false
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := annotationText(c, pauseOnlyPrefix)
			if !ok {
				continue
			}
			found, invariant, pos = true, text, c.Pos()
		}
	}
	if !found {
		return
	}
	if invariant == "" {
		idx.badAnnots = append(idx.badAnnots, annotIssue{
			pkg: pkg,
			pos: pos,
			msg: "//gclint:pauseonly needs an invariant: state why the field may only change during a pause",
		})
		return
	}
	for _, name := range field.Names {
		v, _ := pkg.Info.Defs[name].(*types.Var)
		if v == nil {
			continue
		}
		idx.pauseOnly[v] = &PauseOnlyField{Var: v, Invariant: invariant}
	}
}

// scanFunc walks one function body collecting call sites and base facts.
func (idx *Index) scanFunc(fi *FuncInfo) {
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, id := calleeOf(fi.Pkg.Info, call)
		if id != nil {
			idx.calleeIdents[id] = true
		}
		if callee == nil {
			return true
		}
		fi.Calls = append(fi.Calls, CallSite{Call: call, Callee: callee})
		if boundaryCallees[funcKey(callee)] {
			fi.Facts.LogBoundary = true
		}
		return true
	})
	if fi.storeBoundary() {
		fi.Facts.UnloggedStore = false
		fi.Facts.StoreVia = ""
	}
}

// storeBoundary reports whether unlogged-store propagation stops at fi:
// either it logs its stores, or it is part of the exported API of the
// collector packages (whose raw stores are replica writes, correct by
// construction and unreachable from mutator code except through this API).
// The checkpoint package counts too: its raw stores rebuild a recovered
// heap before any mutator runs, so no log entry could ever be owed.
func (fi *FuncInfo) storeBoundary() bool {
	if fi.Facts.LogBoundary {
		return true
	}
	path := fi.Pkg.Path
	return (path == corePkgPath || path == stopcopyPkgPath || path == checkpointPkgPath) &&
		ast.IsExported(fi.Obj.Name())
}

// markCallersAndEscapes fills hasCaller from the collected call sites and
// marks functions whose identifier is used outside call position (method
// values, callbacks) as escaping.
func (idx *Index) markCallersAndEscapes(pkgs []*Package) {
	for _, fi := range idx.funcs {
		for _, cs := range fi.Calls {
			if target, ok := idx.byObj[cs.Callee]; ok {
				target.hasCaller = true
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || idx.calleeIdents[id] {
					return true
				}
				obj, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if target, ok := idx.byObj[obj.Origin()]; ok {
					target.escapes = true
				}
				return true
			})
		}
	}
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
	if fi, ok := idx.byObj[callee]; ok {
		c := fi.Facts
		if c.MayFlip && !out.MayFlip {
			out.MayFlip, out.FlipVia = true, c.FlipVia
		}
		if c.UnloggedStore && !out.UnloggedStore {
			out.UnloggedStore, out.StoreVia = true, c.StoreVia
		}
	}
	return out
}

// fixpointFacts propagates may-flip / unlogged-store up the call
// graph to convergence. Iteration is over the deterministic function slice,
// so the resulting via-strings are stable run to run.
func (idx *Index) fixpointFacts() {
	for changed := true; changed; {
		changed = false
		for _, fi := range idx.funcs {
			boundary := fi.storeBoundary()
			for _, cs := range fi.Calls {
				facts := idx.CalleeFacts(cs.Callee)
				if facts.MayFlip && !fi.Facts.MayFlip {
					fi.Facts.MayFlip, fi.Facts.FlipVia = true, facts.FlipVia
					changed = true
				}
				if facts.UnloggedStore && !boundary && !fi.Facts.UnloggedStore {
					fi.Facts.UnloggedStore, fi.Facts.StoreVia = true, facts.StoreVia
					changed = true
				}
			}
		}
	}
}

// fixpointInPause computes the greatest fixpoint of "every call site is
// dominated by a pause entry": start optimistic (any function with known,
// non-escaping callers), then strip in-pause from every function reachable
// from a non-in-pause caller until nothing changes.
func (idx *Index) fixpointInPause() {
	for _, fi := range idx.funcs {
		fi.Facts.InPause = fi.Facts.PauseEntry || (fi.hasCaller && !fi.escapes)
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range idx.funcs {
			if fi.Facts.InPause {
				continue
			}
			for _, cs := range fi.Calls {
				target, ok := idx.byObj[cs.Callee]
				if ok && target.Facts.InPause && !target.Facts.PauseEntry {
					target.Facts.InPause = false
					changed = true
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

// PauseOnly returns the annotation for v, or nil.
func (idx *Index) PauseOnly(v *types.Var) *PauseOnlyField {
	return idx.pauseOnly[v]
}

// Summaries renders one line per function ("pkg.Func: may-flip(...) ...") in
// declaration order, for gclint -summaries.
func (idx *Index) Summaries() []string {
	var out []string
	for _, fi := range idx.funcs {
		var tags []string
		if fi.Facts.MayFlip {
			tags = append(tags, "may-flip("+fi.Facts.FlipVia+")")
		}
		if fi.Facts.UnloggedStore {
			tags = append(tags, "unlogged-store("+fi.Facts.StoreVia+")")
		}
		if fi.Facts.LogBoundary {
			tags = append(tags, "log-boundary")
		}
		if fi.Facts.PauseEntry {
			tags = append(tags, "pause-entry")
		} else if fi.Facts.InPause {
			tags = append(tags, "in-pause")
		}
		if len(tags) == 0 {
			tags = append(tags, "pure")
		}
		out = append(out, fmt.Sprintf("%s.%s: %s", fi.Pkg.Path, funcDisplay(fi.Obj), strings.Join(tags, " ")))
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

// calleeOf resolves the static callee of call, returning the function
// object and the identifier consumed as the callee (for escape analysis).
// A call of a generic function or method resolves to its declaration
// (Origin), which is what the index is keyed by, not to the instantiation.
// Interface method calls resolve to the interface's method object, which the
// builtin fact table covers; dynamic calls (func values) return nil.
func calleeOf(info *types.Info, call *ast.CallExpr) (*types.Func, *ast.Ident) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin(), fun
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin(), fun.Sel
			}
			return nil, nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin(), fun.Sel
		}
	}
	return nil, nil
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
