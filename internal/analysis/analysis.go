// Package analysis is a stdlib-only static analyzer that machine-checks the
// invariant discipline the replication collector depends on. The paper's
// correctness story rests on conventions the SML/NJ compiler enforced for
// the original system: every mutator write flows through the logging write
// barrier, ordinary reads never follow forwarding pointers (the from-space
// invariant), and all work charges the simulated clock so runs are
// bit-for-bit reproducible. Nothing in Go enforces any of that, so this
// package does: it type-checks the tree with go/types and applies a set of
// rules, each mapped to a specific invariant (see DESIGN.md, "Machine-checked
// invariants").
//
// The analyzer is deliberately built on the standard library alone (go/ast,
// go/types, go/importer) — the repository stays offline and dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Msg, d.Rule)
}

// Rule checks one invariant over a type-checked package.
type Rule interface {
	// Name is the short identifier used in diagnostics and in
	// //gclint:allow annotations.
	Name() string
	// Doc is a one-line description of the invariant the rule enforces.
	Doc() string
	// Appraise inspects pkg and reports violations through pass.Reportf.
	Appraise(pass *Pass)
}

// Pass carries one package through one rule. Index is the interprocedural
// summary graph built once per Run and shared by all rules.
type Pass struct {
	Pkg   *Package
	Index *Index
	rule  Rule
	out   *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.rule.Name(),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// DefaultRules returns the standard rule set in a fixed order.
func DefaultRules() []Rule {
	return []Rule{
		&BarrierRule{},
		&BarrierFastRule{},
		&WallClockRule{},
		&MapRangeRule{},
		&ExhaustiveRule{},
		&ForwardRule{},
		&PanicPathRule{},
		&StaleHandleRule{},
		&BarrierCompleteRule{},
		&PauseOnlyRule{},
		&IORule{},
	}
}

// Run builds the shared interprocedural Index over pkgs (one load, one
// type-check, one summary fixpoint for all rules), applies rules, resolves
// //gclint:allow annotations, and returns the surviving diagnostics sorted
// by position. Malformed annotations — missing reason, unknown rule names,
// duplicates — and allows that suppress nothing are themselves reported
// (rule "annotation").
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	idx := BuildIndex(pkgs)
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, r := range rules {
			r.Appraise(&Pass{Pkg: pkg, Index: idx, rule: r, out: &raw})
		}
	}

	valid := map[string]bool{"annotation": true}
	for _, r := range rules {
		valid[r.Name()] = true
	}
	var out []Diagnostic
	var sites []allowSite
	for _, pkg := range pkgs {
		allows, list, bad := collectAllows(pkg, valid)
		out = append(out, bad...)
		pkg.allows = allows
		sites = append(sites, list...)
	}
	used := make(map[allowKey]bool)
	for _, d := range raw {
		if key, ok := allowed(pkgs, d); ok {
			used[key] = true
			continue
		}
		out = append(out, d)
	}
	for _, s := range sites {
		if !used[s.key] {
			out = append(out, Diagnostic{
				Pos:  s.pos,
				Rule: "annotation",
				Msg:  fmt.Sprintf("unused //gclint:allow for rule %q: no diagnostic on this line or the one below; drop the annotation (it would silently mask a future violation)", s.key.rule),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// allowKey identifies one suppression site: a file line and a rule name.
type allowKey struct {
	file string
	line int
	rule string
}

// allowSite is one parsed allow annotation entry, kept in source order so
// unused annotations can be reported deterministically.
type allowSite struct {
	key allowKey
	pos token.Position
}

// allowed reports whether d is suppressed by a //gclint:allow annotation on
// its own line or on the line directly above, returning the matching key so
// the caller can track which annotations earn their keep.
func allowed(pkgs []*Package, d Diagnostic) (allowKey, bool) {
	for _, pkg := range pkgs {
		if pkg.allows == nil {
			continue
		}
		if k := (allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}); pkg.allows[k] {
			return k, true
		}
		if k := (allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Rule}); pkg.allows[k] {
			return k, true
		}
	}
	return allowKey{}, false
}

const allowPrefix = "//gclint:allow"

// collectAllows scans a package's comments for //gclint:allow annotations.
// The accepted form is
//
//	//gclint:allow rule[,rule...] -- reason
//
// and the reason is mandatory: an allowlisted violation must say why it is
// acceptable. Malformed annotations — missing reason, rule names not in the
// active rule set (valid), the same rule allowed twice on one line — are
// returned as diagnostics.
func collectAllows(pkg *Package, valid map[string]bool) (map[allowKey]bool, []allowSite, []Diagnostic) {
	allows := make(map[allowKey]bool)
	var sites []allowSite
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // some other gclint:allowX word
				}
				ruleList, reason, ok := strings.Cut(rest, "--")
				if !ok || strings.TrimSpace(reason) == "" {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "annotation",
						Msg:  "malformed //gclint:allow: want \"//gclint:allow rule[,rule] -- reason\" (the reason is required)",
					})
					continue
				}
				names := strings.Split(strings.TrimSpace(ruleList), ",")
				any := false
				for _, n := range names {
					n = strings.TrimSpace(n)
					if n == "" {
						continue
					}
					any = true
					if !valid[n] {
						bad = append(bad, Diagnostic{
							Pos:  pos,
							Rule: "annotation",
							Msg:  fmt.Sprintf("unknown rule %q in //gclint:allow (run gclint -rules for the rule set)", n),
						})
						continue
					}
					key := allowKey{pos.Filename, pos.Line, n}
					if allows[key] {
						bad = append(bad, Diagnostic{
							Pos:  pos,
							Rule: "annotation",
							Msg:  fmt.Sprintf("duplicate //gclint:allow for rule %q on this line", n),
						})
						continue
					}
					allows[key] = true
					sites = append(sites, allowSite{key: key, pos: pos})
				}
				if !any {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "annotation",
						Msg:  "malformed //gclint:allow: no rule names given",
					})
				}
			}
		}
	}
	return allows, sites, bad
}

// --- shared type helpers -------------------------------------------------

// heapPkgPath is the import path of the simulated-heap package every typed
// rule keys off.
const heapPkgPath = "repligc/internal/heap"

// collectorPkgs are the packages allowed to touch raw heap words and
// forwarding pointers: the heap itself, the two collector implementations,
// and the checkpoint writer (which snapshots and restores raw words at
// pause boundaries, on the collector's side of the barrier). Everything
// else must go through the Mutator interface.
var collectorPkgs = map[string]bool{
	heapPkgPath:                   true,
	"repligc/internal/core":       true,
	"repligc/internal/stopcopy":   true,
	"repligc/internal/checkpoint": true,
}

// isNamed reports whether t (after pointer indirection) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// selectorOnHeap resolves sel to (method-or-field name, true) when its
// receiver expression has type repligc/internal/heap.Heap.
func selectorOnHeap(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", false
	}
	if !isNamed(tv.Type, heapPkgPath, "Heap") {
		return "", false
	}
	return sel.Sel.Name, true
}

// enclosingFuncName returns the name of the innermost named function or
// method declaration containing pos, or "" when pos sits in a function
// literal or at file scope.
func enclosingFuncName(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			// A function literal inside fd is still attributed to fd: the
			// literal runs with the same discipline as its host.
			return fd.Name.Name
		}
	}
	return ""
}
