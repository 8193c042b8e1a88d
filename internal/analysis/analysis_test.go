package analysis

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// goldenCases pairs each fixture package under testdata/src with the import
// path it masquerades as — path-scoped rules (barrier, wallclock, forward)
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
	{"forward", "repligc/internal/fixforward"},
	// Masquerades as a collector package: forwarding access is legal there
	// except on the raw read path (Get*/Load* functions).
	{"forwardheap", "repligc/internal/stopcopy"},
	// Masquerades as a collector package: bare panics are flagged there.
	{"panicpath", "repligc/internal/heap"},
	{"fastpath", "repligc/internal/fixfastpath"},
	{"clean", "repligc/internal/fixclean"},
	{"badallow", "repligc/internal/fixbadallow"},
	{"stalehandle", "repligc/internal/fixstale"},
	{"barriercomp", "repligc/internal/fixbarriercomp"},
	{"pauseonly", "repligc/internal/fixpauseonly"},
	// The multi-mutator group shape: the pause entry is installed as a heap
	// hook (a function value the call graph cannot see), so its pauseentry
	// annotation alone certifies the merge writes underneath it.
	{"multimut", "repligc/internal/fixmultimut"},
	{"annot", "repligc/internal/fixannot"},
	// Masquerades as a simulation package: filesystem access is banned
	// outright, annotation or not.
	{"iorule", "repligc/internal/fixio"},
	// Masquerades as a cmd/ package: I/O is legal in a function whose doc
	// comment allows io.
	{"iocmd", "repligc/cmd/fixiocmd"},
	{"construct", "repligc/internal/fixconstruct"},
	{"recorder", "repligc/internal/fixrecorder"},
	// Masquerades as a command: commands read a run through its report.
	{"runstats", "repligc/cmd/fixrunstats"},
	{"gctest", "repligc/internal/fixgctest"},
	// Masquerades as the serving engine: a workload never opens a pause.
	{"bracket", "repligc/internal/workload"},
}

// loadFixtures loads every fixture of goldenCases, in order.
func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, tc := range goldenCases {
		pkg, err := loader.Load(filepath.Join("testdata", "src", tc.fixture), tc.path)
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
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", "clean"), "repligc/internal/fixclean")
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
// fails the test suite, not just the build.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, d := range Run(pkgs, DefaultRules()) {
		t.Errorf("%s", d)
	}
}
