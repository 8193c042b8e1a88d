package analysis

// The stalehandle rule: a raw heap.Value held in a Go local across a call
// that may trigger a collection flip is a dangling reference waiting to
// happen. The collector cannot see the Go stack (DESIGN.md, "Roots and
// handles"): after a minor flip the nursery is reset, after a major flip
// the old from-space is recycled, and any Value derived before the flip may
// point into the condemned space. The discipline the runtime code follows —
// pin the value in a root (handle stack, operand stack, root slot) before
// the call and re-derive it afterwards — is exactly what this rule checks:
// every read of a Value local must be separated from a may-flip call by an
// intervening re-derivation (any fresh assignment), or the read must be
// allowed with the invariant that keeps the value good as the reason.
//
// The check is a position-ordered approximation of real dataflow: within
// one function body (closures included), a read at position R whose last
// write ended at W is stale when some may-flip call F satisfies W < F < R,
// or when R sits in a loop containing a may-flip call and W precedes the
// loop (the value is loop-carried across flips). Immediates — constants of
// type heap.Value and the heap.FromInt/FromBool constructors — are exempt:
// they are tagged words, not pointers, and survive any flip. Locals whose
// address is taken are exempt too: a *heap.Value handed out is (in this
// codebase) a registered root slot, which the flip itself repoints.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// StaleHandleRule flags heap.Value locals read after a may-flip call.
type StaleHandleRule struct{}

// Name implements Rule.
func (*StaleHandleRule) Name() string { return "stalehandle" }

// Doc implements Rule.
func (*StaleHandleRule) Doc() string {
	return "a heap.Value held across a may-flip call must be re-derived, or allowed with the invariant that keeps it good"
}

// Appraise implements Rule.
func (r *StaleHandleRule) Appraise(pass *Pass) {
	for _, fi := range pass.Index.PkgFuncs(pass.Pkg) {
		if fi.Decl.Body != nil {
			checkStaleValues(pass, fi)
		}
	}
}

// span is a half-open source range.
type span struct {
	pos, end token.Pos
}

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

// flipSite is one may-flip call in a function body.
type flipSite struct {
	span
	name string // callee display name
	via  string // root primitive the flip fact came from
}

// valueEvent is one read or write of a tracked heap.Value local.
type valueEvent struct {
	pos       token.Pos // read position, or end of the writing statement
	write     bool
	immediate bool // write of a non-pointer immediate (constant, FromInt...)
}

// checkStaleValues runs the position-ordered staleness check over one
// function body.
func checkStaleValues(pass *Pass, fi *FuncInfo) {
	var flips []flipSite
	for _, cs := range fi.Calls {
		facts := pass.Index.CalleeFacts(cs.Callee)
		if !facts.MayFlip {
			continue
		}
		via := facts.FlipVia
		if via == "" {
			via = funcDisplay(cs.Callee)
		}
		flips = append(flips, flipSite{
			span: span{cs.Call.Pos(), cs.Call.End()},
			name: funcDisplay(cs.Callee),
			via:  via,
		})
	}
	if len(flips) == 0 {
		return
	}

	info := pass.Pkg.Info
	var loops []span
	writes := make(map[*ast.Ident]valueEvent)
	exempt := make(map[*types.Var]bool)
	track := func(id *ast.Ident) *types.Var {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || !typeIsHeapValue(v.Type()) {
			return nil
		}
		if v.Pos() < fi.Decl.Pos() || v.Pos() > fi.Decl.End() {
			return nil // not a local/param of this declaration
		}
		return v
	}
	markWrite := func(target ast.Expr, end token.Pos, imm bool) {
		if id, ok := unparen(target).(*ast.Ident); ok && track(id) != nil {
			writes[id] = valueEvent{pos: end, write: true, immediate: imm}
		}
	}
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Pos(), n.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.Pos(), n.End()})
			// Key/Value are rewritten each iteration; the write "happens"
			// at the range header, before any body read.
			if n.Key != nil {
				markWrite(n.Key, n.X.End(), false)
			}
			if n.Value != nil {
				markWrite(n.Value, n.X.End(), false)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				markWrite(lhs, n.End(), isImmediateValue(pass, rhs))
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				var rhs ast.Expr
				switch {
				case len(n.Values) == 0:
					// Zero value: heap.Nil, an immediate.
					markWrite(id, n.End(), true)
					continue
				case len(n.Values) == len(n.Names):
					rhs = n.Values[i]
				}
				markWrite(id, n.End(), isImmediateValue(pass, rhs))
			}
		case *ast.IncDecStmt:
			markWrite(n.X, n.End(), false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					if v := track(id); v != nil {
						exempt[v] = true
					}
				}
			}
		}
		return true
	})

	// Function parameters (and named results) are written at their
	// declaration site.
	declWrite := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				writes[id] = valueEvent{pos: id.End(), write: true}
			}
		}
	}
	declWrite(fi.Decl.Recv)
	declWrite(fi.Decl.Type.Params)
	declWrite(fi.Decl.Type.Results)
	// Closure parameters inside the body.
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			declWrite(fl.Type.Params)
			declWrite(fl.Type.Results)
		}
		return true
	})

	// Gather per-variable event streams.
	events := make(map[*types.Var][]valueEvent)
	var order []*types.Var
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := track(id)
		if v == nil || exempt[v] {
			return true
		}
		ev, isWrite := writes[id]
		if !isWrite {
			ev = valueEvent{pos: id.Pos()}
		}
		if _, seen := events[v]; !seen {
			order = append(order, v)
		}
		events[v] = append(events[v], ev)
		return true
	})

	for _, v := range order {
		evs := events[v]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		reported := make(map[token.Pos]bool) // keyed by last-write position
		lastWrite := valueEvent{pos: v.Pos(), write: true}
		for _, ev := range evs {
			if ev.write {
				lastWrite = ev
				continue
			}
			if lastWrite.immediate || reported[lastWrite.pos] {
				continue
			}
			f, loopCarried := staleAgainst(ev.pos, lastWrite.pos, flips, loops)
			if f == nil {
				continue
			}
			reported[lastWrite.pos] = true
			if loopCarried {
				pass.Reportf(ev.pos,
					"heap.Value %q is carried across iterations of a loop that calls %s (may flip, reaches %s): after a flip it may point into a condemned space; re-derive it inside the loop or allow it with the invariant that keeps it good",
					v.Name(), f.name, f.via)
			} else {
				pass.Reportf(ev.pos,
					"heap.Value %q is read after the call to %s (may flip, reaches %s): after a flip it may point into a condemned space; re-derive it after the call or allow it with the invariant that keeps it good",
					v.Name(), f.name, f.via)
			}
		}
	}
}

// staleAgainst decides whether a read at readPos with last write at
// writePos crosses a flip: either linearly (write < flip < read) or
// loop-carried (read inside a loop containing a flip, write before the
// loop). It returns the offending flip site, or nil.
func staleAgainst(readPos, writePos token.Pos, flips []flipSite, loops []span) (*flipSite, bool) {
	for i := range flips {
		f := &flips[i]
		if writePos <= f.pos && f.end <= readPos {
			return f, false
		}
	}
	for _, l := range loops {
		if !l.contains(readPos) || writePos > l.pos {
			continue
		}
		for i := range flips {
			f := &flips[i]
			if l.contains(f.pos) {
				return f, true
			}
		}
	}
	return nil, false
}

// typeIsHeapValue reports whether t is exactly repligc/internal/heap.Value
// (not a pointer to it: *heap.Value slots are registered roots the flip
// repoints).
func typeIsHeapValue(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == heapPkgPath && obj.Name() == "Value"
}

// isImmediateValue reports whether e evaluates to a non-pointer immediate:
// a constant (heap.Nil and friends) or a heap.FromInt/FromBool call.
func isImmediateValue(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	e = unparen(e)
	if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Value != nil {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := calleeOf(pass.Pkg.Info, call)
	if callee == nil {
		return false
	}
	switch funcKey(callee) {
	case heapPkgPath + ".FromInt", heapPkgPath + ".FromBool":
		return true
	}
	return false
}
