package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

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
