package analysis

// The pauseonly rule: collector state annotated //gclint:pauseonly may only
// be written by functions whose call sites are all dominated by a pause
// entry (//gclint:pauseentry). Today's runtime schedules every mutator of a
// group cooperatively on one goroutine, so "the world is stopped" is implicit
// in being inside a collector increment; the annotation makes the discipline
// explicit and machine-checked, which is exactly what running mutators in
// parallel would require (ROADMAP open item 1): any write reachable without
// first stopping the mutators is a data race in waiting. The in-pause summary
// comes from the call-graph greatest fixpoint in summaries.go — a function is
// in-pause when it is a pause entry, or when every known caller is in-pause
// and its identifier never escapes into a func value (which would allow calls
// the graph cannot see).

import (
	"go/ast"
	"go/types"
)

// PauseOnlyRule flags writes to //gclint:pauseonly fields from functions
// not dominated by a pause entry.
type PauseOnlyRule struct{}

// Name implements Rule.
func (*PauseOnlyRule) Name() string { return "pauseonly" }

// Doc implements Rule.
func (*PauseOnlyRule) Doc() string {
	return "//gclint:pauseonly fields may only be written under a //gclint:pauseentry function"
}

// Appraise implements Rule.
func (r *PauseOnlyRule) Appraise(pass *Pass) {
	for _, issue := range pass.Index.badAnnots {
		if issue.pkg == pass.Pkg {
			pass.Reportf(issue.pos, "%s", issue.msg)
		}
	}
	for _, fi := range pass.Index.PkgFuncs(pass.Pkg) {
		if fi.Decl.Body == nil || fi.Facts.InPause {
			continue
		}
		r.checkWrites(pass, fi)
	}
}

// checkWrites reports pauseonly-field writes inside a non-in-pause function.
func (r *PauseOnlyRule) checkWrites(pass *Pass, fi *FuncInfo) {
	info := pass.Pkg.Info
	report := func(sel *ast.SelectorExpr) {
		pf := pauseOnlyTarget(pass, info, sel)
		if pf == nil {
			return
		}
		pass.Reportf(sel.Sel.Pos(),
			"write to pause-only field %s from %s, which is reachable without passing a //gclint:pauseentry function (field invariant: %s); move the write under a pause entry or annotate the site",
			pf.Var.Name(), funcDisplay(fi.Obj), pf.Invariant)
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel := selectorWriteTarget(lhs); sel != nil {
					report(sel)
				}
			}
		case *ast.IncDecStmt:
			if sel := selectorWriteTarget(n.X); sel != nil {
				report(sel)
			}
		}
		return true
	})
}

// selectorWriteTarget unwraps an assignment target down to the field
// selector being written: c.f, c.f[i], c.f[i:j] all write through c.f.
func selectorWriteTarget(lhs ast.Expr) *ast.SelectorExpr {
	for {
		switch e := unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			return e
		default:
			return nil
		}
	}
}

// pauseOnlyTarget resolves sel to an annotated pauseonly field, or nil.
func pauseOnlyTarget(pass *Pass, info *types.Info, sel *ast.SelectorExpr) *PauseOnlyField {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return pass.Index.PauseOnly(v)
}
