package analysis

import (
	"bytes"
	"flag"
	"fmt"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// goldenCases pairs each fixture package under testdata/src with the import
// path it masquerades as — path-scoped rules (barrier, wallclock, io)
// behave differently inside and outside the collector packages, and the
// fixture must land on the right side of that line.
var goldenCases = []struct {
	fixture string
	path    string
}{
	{"barrier", "repligc/internal/fixbarrier"},
	{"wallclock", "repligc/internal/fixwallclock"},
	// Masquerades as a cmd/ package: exporter glue is in scope for the
	// wallclock rule, with the annotated stamp as the allowed exception.
	{"wallclockcmd", "repligc/cmd/fixwallclockcmd"},
	{"maprange", "repligc/internal/fixmaprange"},
	{"exhaustive", "repligc/internal/fixexhaustive"},
	// Masquerades as a collector package: bare panics are flagged there.
	{"panicpath", "repligc/internal/heap"},
	{"clean", "repligc/internal/fixclean"},
	{"badallow", "repligc/internal/fixbadallow"},
	{"stalehandle", "repligc/internal/fixstale"},
	{"annot", "repligc/internal/fixannot"},
	// Masquerades as a simulation package: filesystem access is banned
	// outright, annotation or not.
	{"iorule", "repligc/internal/fixio"},
	// Masquerades as a cmd/ package: I/O is legal in a function whose doc
	// comment allows io.
	{"iocmd", "repligc/cmd/fixiocmd"},
	{"construct", "repligc/internal/fixconstruct"},
	// Masquerades as a command: commands read a run through its report.
	{"runstats", "repligc/cmd/fixrunstats"},
	{"gctest", "repligc/internal/fixgctest"},
	// Masquerades as the serving engine: a workload never opens a pause.
	{"bracket", "repligc/internal/workload"},
}

// loader is the test binary's one Loader, so go list runs once: the module,
// the nested benchmark module, and testing, which a fixture imports and no
// module package does.
var loader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(filepath.Join("..", ".."), "./...", "./benchmarks/host", "testing")
})

// sharedLoader returns loader or fails the test.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// treePackages loads every package gclint lints in the tree.
func treePackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := sharedLoader(t).Packages()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// loadFixtures loads every fixture of goldenCases, in order.
func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	l := sharedLoader(t)
	var pkgs []*Package
	for _, tc := range goldenCases {
		pkg, err := l.Load(filepath.Join("testdata", "src", tc.fixture), tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.fixture, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// findings renders what rules report on pkg, one diagnostic a line.
func findings(pkg *Package, rules []Rule) []byte {
	var b bytes.Buffer
	for _, d := range Run([]*Package{pkg}, rules) {
		fmt.Fprintf(&b, "%s\n", d)
	}
	return b.Bytes()
}

func TestGolden(t *testing.T) {
	pkgs := loadFixtures(t)
	for i, tc := range goldenCases {
		t.Run(tc.fixture, func(t *testing.T) {
			got := findings(pkgs[i], DefaultRules())
			golden := filepath.Join("testdata", "golden", tc.fixture+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestEveryRowIsPinned drops each row of the confinement table in turn and
// requires some fixture's findings to change: a row that matches nothing in
// the fixtures could be deleted, or broken, without failing TestGolden.
func TestEveryRowIsPinned(t *testing.T) {
	pkgs := loadFixtures(t)
	all := make([][]byte, len(pkgs))
	for i, pkg := range pkgs {
		all[i] = findings(pkg, DefaultRules())
	}
	for _, row := range Confinements {
		var rules []Rule
		for _, r := range DefaultRules() {
			if r != Rule(row) {
				rules = append(rules, r)
			}
		}
		pinned := false
		for i, pkg := range pkgs {
			if !bytes.Equal(findings(pkg, rules), all[i]) {
				pinned = true
				break
			}
		}
		if !pinned {
			t.Errorf("row %s %s matches nothing in the fixtures", row.Rule, row.Doc())
		}
	}
}

// TestCleanFixtureIsEmpty pins the semantics the "clean" golden depends on:
// a well-formed allow annotation fully suppresses its diagnostic.
func TestCleanFixtureIsEmpty(t *testing.T) {
	pkg, err := sharedLoader(t).Load(filepath.Join("testdata", "src", "clean"), "repligc/internal/fixclean")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Package{pkg}, DefaultRules()); len(diags) != 0 {
		t.Errorf("clean fixture produced %d diagnostics, want 0:", len(diags))
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
}

// TestTreeIsClean runs the full default rule set over the real module — the
// same check `make lint` performs — so a rule regression or a new violation
// fails the test suite, not just the build. It first pins the scope: exactly
// the root module's `go list ./...` plus the nested benchmark module, so a
// loader change cannot drop a package from lint in silence.
func TestTreeIsClean(t *testing.T) {
	pkgs := treePackages(t)
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	want := append(strings.Fields(string(out)), "repligc/benchmarks/host")
	sort.Strings(want)
	var got []string
	for _, pkg := range pkgs {
		got = append(got, pkg.Path)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("loaded %d packages, want the %d that go list names:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for _, d := range Run(pkgs, DefaultRules()) {
		t.Errorf("%s", d)
	}
}

// TestEveryCallEdgeResolves requires every static call in the tree whose
// callee is declared in a loaded package to reach that callee's summary. A
// callee object the index is not keyed by (a second type-check of the
// callee's package, an instantiation of a generic) would drop every fact the
// callee carries. Interface methods have no declaration to reach; the
// builtin table covers them.
func TestEveryCallEdgeResolves(t *testing.T) {
	pkgs := treePackages(t)
	idx := BuildIndex(pkgs)
	loaded := make(map[string]bool)
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	edges, unresolved := 0, 0
	for _, fi := range idx.funcs {
		for _, cs := range fi.Calls {
			recv := cs.Callee.Type().(*types.Signature).Recv()
			if cs.Callee.Pkg() == nil || !loaded[cs.Callee.Pkg().Path()] || recv != nil && types.IsInterface(recv.Type()) {
				continue
			}
			edges++
			if idx.byObj[cs.Callee] == nil {
				if unresolved++; unresolved <= 10 {
					t.Errorf("%s: the call to %s reaches no summary", fi.Pkg.Fset.Position(cs.Call.Pos()), funcKey(cs.Callee))
				}
			}
		}
	}
	if unresolved > 0 {
		t.Fatalf("%d of %d in-module call edges reach no summary", unresolved, edges)
	}

	// A cross-package fact no builtin row states: the comp workload's
	// compiles allocate, so each may flip, and only the index says so.
	const caller, callee = "repligc/internal/bench.compWorkload.Run", "repligc/internal/lang.Compile"
	if _, ok := builtinFacts[callee]; ok {
		t.Fatalf("%s has a builtin row; the pin needs a fact only the index carries", callee)
	}
	found := false
	for _, fi := range idx.funcs {
		if funcKey(fi.Obj) != caller {
			continue
		}
		for _, cs := range fi.Calls {
			if funcKey(cs.Callee) == callee {
				found = true
				if !idx.CalleeFacts(cs.Callee).MayFlip {
					t.Errorf("%s: the call to %s is not may-flip", fi.Pkg.Fset.Position(cs.Call.Pos()), callee)
				}
			}
		}
	}
	if !found {
		t.Errorf("no call from %s to %s in the tree", caller, callee)
	}
}
