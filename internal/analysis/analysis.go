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
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string

	final bool // no //gclint:allow suppresses it (Confinement.Final)
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Msg, d.Rule)
}

// Rule checks one invariant over a type-checked package.
type Rule interface {
	// Name is the identifier used in diagnostics and in //gclint:allow
	// annotations. Several rules may share one: the rows of one
	// confinement do.
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

// DefaultRules returns the standard rule set in a fixed order: the
// confinement table's rows, then the rules a row cannot state.
func DefaultRules() []Rule {
	var rules []Rule
	for _, c := range Confinements {
		rules = append(rules, c)
	}
	return append(rules,
		&ReadPathRule{},
		&MapRangeRule{},
		&ExhaustiveRule{},
		&StaleHandleRule{},
		&BarrierCompleteRule{},
		&PauseOnlyRule{},
	)
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
	var sites []*allowSite
	for _, pkg := range pkgs {
		list, bad := collectAllows(pkg, valid)
		sites = append(sites, list...)
		out = append(out, bad...)
	}
	for _, d := range raw {
		allowed := false
		for _, s := range sites {
			if !d.final && s.covers(d) {
				s.used, allowed = true, true
			}
		}
		if !allowed {
			out = append(out, d)
		}
	}
	for _, s := range sites {
		if !s.used {
			out = append(out, Diagnostic{
				Pos:  s.pos,
				Rule: "annotation",
				Msg:  fmt.Sprintf("unused //gclint:allow for rule %q: it suppresses nothing; drop the annotation (it would silently mask a future violation)", s.rule),
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
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// allowSite is one rule named by one //gclint:allow annotation, with the
// lines it covers: its own and the next, or, when it sits in a function's
// doc comment, through the function's last line.
type allowSite struct {
	rule string
	pos  token.Position
	last int
	used bool
}

// covers reports whether the site suppresses d.
func (s *allowSite) covers(d Diagnostic) bool {
	return s.rule == d.Rule && s.pos.Filename == d.Pos.Filename &&
		s.pos.Line <= d.Pos.Line && d.Pos.Line <= s.last
}

const allowPrefix = "//gclint:allow"

// collectAllows parses a package's //gclint:allow annotations. The accepted
// form is
//
//	//gclint:allow rule[,rule...] -- reason
//
// and the reason is mandatory: an allowlisted violation must say why it is
// acceptable. Malformed annotations — missing reason, rule names not in the
// active rule set (valid), the same rule allowed twice on one line — are
// returned as diagnostics and suppress nothing.
func collectAllows(pkg *Package, valid map[string]bool) ([]*allowSite, []Diagnostic) {
	var sites []*allowSite
	var bad []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{Pos: pos, Rule: "annotation", Msg: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		funcEnd := make(map[*ast.Comment]token.Pos)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					funcEnd[c] = fd.End()
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := annotationText(c, allowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				last := pos.Line + 1
				if end, ok := funcEnd[c]; ok {
					last = pkg.Fset.Position(end).Line
				}
				ruleList, reason, ok := strings.Cut(rest, "--")
				if !ok || strings.TrimSpace(reason) == "" {
					report(pos, "malformed //gclint:allow: want \"//gclint:allow rule[,rule] -- reason\" (the reason is required)")
					continue
				}
				seen := make(map[string]bool)
				for _, n := range strings.Split(ruleList, ",") {
					n = strings.TrimSpace(n)
					switch {
					case n == "":
						continue
					case !valid[n]:
						report(pos, "unknown rule %q in //gclint:allow (run gclint -rules for the rule set)", n)
					case seen[n]:
						report(pos, "duplicate //gclint:allow for rule %q on this line", n)
					default:
						sites = append(sites, &allowSite{rule: n, pos: pos, last: last})
					}
					seen[n] = true
				}
				if len(seen) == 0 {
					report(pos, "malformed //gclint:allow: no rule names given")
				}
			}
		}
	}
	return sites, bad
}

// annotationText returns (rest-of-line, true) when comment c is the given
// gclint annotation. A prefix match followed by a non-space rune is some
// other annotation word and does not count.
func annotationText(c *ast.Comment, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(c.Text, prefix)
	if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}
