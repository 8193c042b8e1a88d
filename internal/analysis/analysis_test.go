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
	// Masquerades as a cmd/ package: I/O is legal behind //gclint:io.
	{"iocmd", "repligc/cmd/fixiocmd"},
}

func TestGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg, err := loader.Load(filepath.Join("testdata", "src", tc.fixture), tc.path)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, d := range Run([]*Package{pkg}, DefaultRules()) {
				fmt.Fprintf(&got, "%s\n", d)
			}
			golden := filepath.Join("testdata", "golden", tc.fixture+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
			}
		})
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
