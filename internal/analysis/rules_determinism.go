package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallClockRule bans the host's wall clock from simulation-governed
// packages. Every "time" measurement in the system is a function of work
// charged to the simulated simtime.Clock, which is what makes runs
// bit-for-bit reproducible across machines and across collector
// configurations (the paper's §4.2 replay methodology depends on it). A
// single time.Now or time.Sleep smuggled into the simulation would couple
// results to the host scheduler. testing.Benchmark is the same read by
// another door: it times its argument on the host clock. Host cost is
// measured in one place, the nested module benchmarks/host, and by testing.B
// benchmarks in _test.go files, neither of which this rule loads.
type WallClockRule struct{}

// Name implements Rule.
func (*WallClockRule) Name() string { return "wallclock" }

// Doc implements Rule.
func (*WallClockRule) Doc() string {
	return "simulation-governed packages must charge simtime.Clock, never read the wall clock (package time's clock functions, testing.Benchmark)"
}

// wallClockFuncs are the functions, by package, that observe or depend on
// real time.
var wallClockFuncs = map[string]map[string]bool{
	"time": {
		"Now":       true,
		"Since":     true,
		"Until":     true,
		"Sleep":     true,
		"After":     true,
		"AfterFunc": true,
		"Tick":      true,
		"NewTimer":  true,
		"NewTicker": true,
	},
	"testing": {"Benchmark": true},
}

// Appraise implements Rule.
func (r *WallClockRule) Appraise(pass *Pass) {
	// internal/ is the simulation; cmd/ is in scope too so that exporter
	// glue stamping artifacts with wall-clock metadata stays an explicit,
	// annotated exception (the trace subsystem itself must never read it).
	p := pass.Pkg.Path
	if !strings.HasPrefix(p, "repligc/internal/") && !strings.HasPrefix(p, "repligc/cmd/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			where := "at file scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				where = "in " + fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
				if !ok || !wallClockFuncs[pn.Imported().Path()][sel.Sel.Name] {
					return true
				}
				pass.Reportf(sel.Sel.Pos(),
					"%s.%s %s: all timing must advance the simulated clock (simtime.Clock.Charge) so runs stay bit-for-bit reproducible; host time is read only by benchmarks/host and by testing.B benchmarks in _test.go files",
					pn.Imported().Path(), sel.Sel.Name, where)
				return true
			})
		}
	}
}

// MapRangeRule flags range loops over maps in non-test code. Go randomises
// map iteration order per run, so any map range whose effects reach a
// recorded table, a policy script or program output breaks the bit-for-bit
// replay the experiments depend on (paper §4.2). Order-insensitive
// iterations (pure tallies) can be allowlisted with an annotation stating
// why.
type MapRangeRule struct{}

// Name implements Rule.
func (*MapRangeRule) Name() string { return "maprange" }

// Doc implements Rule.
func (*MapRangeRule) Doc() string {
	return "map iteration order is random; deterministic code must iterate sorted keys"
}

// Appraise implements Rule.
func (r *MapRangeRule) Appraise(pass *Pass) {
	p := pass.Pkg.Path
	if p != "repligc" &&
		!strings.HasPrefix(p, "repligc/internal/") &&
		!strings.HasPrefix(p, "repligc/cmd/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Pkg.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.Reportf(rng.Pos(),
				"range over a map iterates in random order and breaks bit-for-bit reproducibility; iterate sorted keys (or allowlist with the reason the order cannot matter)")
			return true
		})
	}
}
