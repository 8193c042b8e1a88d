// Command mutate measures which check catches what. It applies each mutant
// of the catalogue mutants.json (a one-site edit: Old, found exactly once in
// declaration Func, becomes New) to a copy of the tracked tree in
// $TMPDIR/repligc-mutate, runs the tests and gclint on it, and writes
// mutation_matrix.json: each mutant with the top-level tests and gclint rules
// that kill (fail on) it, and for each target the mutants aimed at it and
// those only it kills. A mutant runs the tests of the packages whose test
// binaries link the mutated package (go list -test), and the analyzer's,
// which load the tree at run time: no other test can see the edit. Given
// mutant ids, it runs those and prints their rows.
// TestTreeIsClean, which repeats gclint, counts as gclint's findings, and the
// catalogue's own test does not count. A mutant that does not build, or a
// tree that fails unmutated, exits 1: the catalogue is wrong.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// Catalogue is mutants.json: the mutants, the checks the tests run (AuditHeap,
// Verify, …) and the gclint rules an earlier matrix deleted. A mutant's Func
// names the declaration it edits (Apply); its Target is a gclint rule, a named
// oracle, a retired rule or, for a behaviour mutant, empty; From the
// EXPERIMENTS.md section or ROADMAP line it comes from.
type Catalogue struct {
	Oracles, Retired []string
	Mutants          []Mutant
}

type Mutant struct{ ID, File, Func, Old, New, Target, From string }

// Row is one mutant's line of the matrix, TargetRow one target's: the mutants
// aimed at it and those it alone kills — for an oracle, which runs inside
// tests, those aimed at it that tests kill and no rule does.
type Row struct {
	ID     string   `json:"id"`
	Target string   `json:"target"`
	Tests  []string `json:"tests"`
	Rules  []string `json:"rules"`
}
type TargetRow struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"` // rule, oracle or retired
	Aimed []string `json:"aimed"`
	Only  []string `json:"only"`
}

// epoch is every copied file's time. The go command keys a cached test result
// on the size and time of each file the test opened, so the times repeat from
// run to run, and each mutant's file gets a time of its own.
var epoch = time.Unix(1e9, 0)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mutate: %v\n", err)
		os.Exit(1)
	}
}

//gclint:allow io -- reads the catalogue, owns the scratch copy and writes mutation_matrix.json
func run(ids []string) error {
	var cat Catalogue
	b, err := os.ReadFile("mutants.json")
	if err == nil {
		err = json.Unmarshal(b, &cat)
	}
	if err != nil {
		return err
	}
	todo := cat.Mutants
	if len(ids) > 0 {
		todo = slices.DeleteFunc(slices.Clone(todo), func(m Mutant) bool { return !slices.Contains(ids, m.ID) })
		if len(todo) != len(ids) {
			return fmt.Errorf("mutants.json holds %d of the %d mutants named", len(todo), len(ids))
		}
	}
	work := filepath.Join(os.TempDir(), "repligc-mutate")
	tree, gclint := filepath.Join(work, "tree"), filepath.Join(work, "gclint")
	defer os.RemoveAll(work)
	out, err := sh(".", `rm -rf "$0" && mkdir -p "$1" && git ls-files -z | xargs -0 cp --parents -t "$1" &&
		find "$1" -type f -exec touch -d @1000000000 {} + && cd "$1" && go build -o "$2" ./cmd/gclint && "$2" -rules | cut -d' ' -f1`, work, tree, gclint)
	if err != nil {
		return fmt.Errorf("copying the tree and building gclint: %v", err)
	}
	var names []string
	var targets []TargetRow // gclint's rules in its order, the oracles, the retired rules
	for i, list := range [][]string{strings.Fields(string(out)), cat.Oracles, cat.Retired} {
		for _, n := range list {
			if !slices.Contains(names, n) {
				targets = append(targets, TargetRow{n, []string{"rule", "oracle", "retired"}[i], []string{}, []string{}})
				names = append(names, n)
			}
		}
	}
	dirs, linked, err := testLinks(tree)
	if err != nil {
		return fmt.Errorf("listing the tests' packages: %v", err)
	}
	// Every mutant's packages are known before the first runs: a mutated
	// directory no test links would leave its row to the analyzer alone.
	pkgsOf := make([][]string, len(todo))
	for i, m := range todo {
		pkg, ok := dirs[filepath.Dir(m.File)]
		if !ok || len(linked[pkg]) == 0 {
			return fmt.Errorf("%s: no test binary links the package in %s", m.ID, filepath.Dir(m.File))
		}
		pkgsOf[i] = append(slices.Clone(linked[pkg]), analyzer)
		slices.Sort(pkgsOf[i])
		pkgsOf[i] = slices.Compact(pkgsOf[i])
	}
	if row, err := measure(tree, gclint, "the unmutated tree", []string{"./..."}); err != nil || len(row.Tests)+len(row.Rules) > 0 {
		return fmt.Errorf("the unmutated tree fails: %v %v %v", row.Tests, row.Rules, err)
	}
	var rows []Row
	for i, m := range todo {
		start := time.Now() //gclint:allow wallclock -- the runner's progress line, which no simulated number reads
		path := filepath.Join(tree, m.File)
		orig, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src, err := Apply(m, orig)
		if err == nil {
			err = write(path, src, epoch.Add(time.Duration(1+crc32.ChecksumIEEE([]byte(m.ID+m.New))%1e8)*time.Second))
		}
		if err != nil {
			return fmt.Errorf("%s: %v", m.ID, err)
		}
		pkgs := pkgsOf[i]
		row, err := measure(tree, gclint, m.ID, pkgs)
		if err = errors.Join(err, write(path, orig, epoch)); err != nil {
			return err
		}
		row.ID, row.Target = m.ID, m.Target
		rows = append(rows, row)
		fmt.Fprintf(os.Stderr, "[%d/%d] %s: %d packages run, %d tests fail, rules %v, %.0fs\n", i+1, len(todo), m.ID, len(pkgs), len(row.Tests), row.Rules,
			time.Since(start).Seconds()) //gclint:allow wallclock -- the runner's progress line
	}
	survivors := []string{}
	for _, r := range rows {
		if len(r.Tests)+len(r.Rules) == 0 {
			survivors = append(survivors, r.ID)
		}
		for i := range targets {
			t := &targets[i]
			if r.Target == t.Name {
				t.Aimed = append(t.Aimed, r.ID)
			}
			if t.Kind == "oracle" && r.Target == t.Name && len(r.Tests) > 0 && len(r.Rules) == 0 ||
				t.Kind != "oracle" && len(r.Tests) == 0 && slices.Equal(r.Rules, []string{t.Name}) {
				t.Only = append(t.Only, r.ID)
			}
		}
	}
	doc, _ := json.MarshalIndent(struct {
		Schema    string      `json:"schema"`
		Mutants   []Row       `json:"mutants"`
		Targets   []TargetRow `json:"targets"`
		Survivors []string    `json:"survivors"`
	}{"repligc-mutation-matrix/1", rows, targets, survivors}, "", "  ")
	if doc = append(doc, '\n'); len(ids) > 0 {
		_, err = os.Stdout.Write(doc)
		return err
	}
	return os.WriteFile("mutation_matrix.json", doc, 0o644)
}

// Apply returns src with m.Old, which must occur exactly once in the source
// of declaration m.Func, replaced by m.New. A function is named Recv.Name or
// Name, a const, var or type declaration by its first name, and a file's
// import declaration "import".
func Apply(m Mutant, src []byte) ([]byte, error) {
	f, err := parser.ParseFile(token.NewFileSet(), m.File, src, 0)
	if err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		name := "import"
		switch d := d.(type) {
		case *ast.FuncDecl:
			if name = d.Name.Name; d.Recv != nil {
				name = strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*") + "." + name
			}
		case *ast.GenDecl:
			if s, ok := d.Specs[0].(*ast.ValueSpec); ok {
				name = s.Names[0].Name
			} else if s, ok := d.Specs[0].(*ast.TypeSpec); ok {
				name = s.Name.Name
			}
		}
		if name != m.Func {
			continue
		}
		lo, hi := int(d.Pos())-1, int(d.End())-1
		if n := bytes.Count(src[lo:hi], []byte(m.Old)); n != 1 {
			return nil, fmt.Errorf("old occurs %d times in %s, want once", n, m.Func)
		}
		return slices.Concat(src[:lo], bytes.Replace(src[lo:hi], []byte(m.Old), []byte(m.New), 1), src[hi:]), nil
	}
	return nil, fmt.Errorf("no function %s in %s", m.Func, m.File)
}

// analyzer is the package whose tests load the tree's packages at run time
// (its fixtures import them through go list) rather than link them, so that
// no import graph says which mutants they can see: they run for every one.
const analyzer = "repligc/internal/analysis"

// testLinks lists the tree's packages: the import path of each package
// directory, relative to the tree, and for each package the packages whose
// test binaries link it, itself included when it has tests.
func testLinks(tree string) (dirs map[string]string, linked map[string][]string, err error) {
	out, err := sh(tree, `go list -test -f '{{.ImportPath}}|{{.ForTest}}|{{.Dir}}|{{join .Deps " "}}' ./...`)
	if err != nil {
		return nil, nil, err
	}
	dirs, linked = make(map[string]string), make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, "|", 4)
		path, forTest, dir, deps := f[0], f[1], f[2], strings.Fields(f[3])
		if rel, err := filepath.Rel(tree, dir); err == nil && forTest == "" && !strings.HasSuffix(path, ".test") {
			dirs[rel] = path
		}
		test, ok := strings.CutSuffix(path, ".test")
		if !ok {
			continue
		}
		for _, d := range deps { // a test variant's dependency reads "pkg [test.test]"
			if !strings.HasPrefix(d, "[") {
				linked[d] = append(linked[d], test)
			}
		}
	}
	return dirs, linked, nil
}

// measure runs the tests of pkgs and gclint on the tree as it stands. It
// returns the top-level tests that fail, or were running when their binary
// panicked or timed out, and the rules gclint reports findings of.
func measure(tree, gclint, what string, pkgs []string) (Row, error) {
	row := Row{Tests: []string{}, Rules: []string{}}
	cmd := exec.Command("go", append([]string{"test", "-json", "-timeout", "120s"}, pkgs...)...)
	cmd.Dir = tree
	out, _ := cmd.Output()
	type event struct{ Action, Package, Test, FailedBuild string }
	last, failed := make(map[event]string), make(map[string]bool) // a top-level test's last action
	for _, line := range bytes.Split(out, []byte("\n")) {
		var e event
		if json.Unmarshal(line, &e) != nil {
			continue
		} else if e.FailedBuild != "" {
			return row, fmt.Errorf("%s does not build (%s)", what, e.FailedBuild)
		} else if e.Test == "" {
			failed[e.Package] = failed[e.Package] || e.Action == "fail"
		} else if !strings.Contains(e.Test, "/") && slices.Contains([]string{"run", "pass", "fail", "skip"}, e.Action) {
			last[event{Package: e.Package, Test: e.Test}] = e.Action
		}
	}
	for e, a := range last { //gclint:allow maprange -- the tests are sorted below
		if a == "fail" || a == "run" && failed[e.Package] {
			row.Tests = append(row.Tests, e.Package+"."+e.Test)
		}
	}
	row.Tests = slices.DeleteFunc(row.Tests, func(t string) bool { // gclint's, and the catalogue's own
		return t == "repligc/internal/analysis.TestTreeIsClean" || strings.HasPrefix(t, "repligc/cmd/mutate.")
	})
	slices.Sort(row.Tests)
	rules, err := sh(tree, `"$0" -out "$1" ./... ./benchmarks/host >/dev/null; [ $? -le 1 ] &&
		grep -o '"rule": "[^"]*"' "$1" | cut -d'"' -f4 | sort -u`, gclint, filepath.Join(filepath.Dir(gclint), "findings.json"))
	row.Rules = append(row.Rules, strings.Fields(string(rules))...)
	return row, err
}

// sh runs a shell script in dir, with args as $0, $1, …, and returns its
// standard output; its standard error is the runner's.
func sh(dir, script string, args ...string) ([]byte, error) {
	cmd := exec.Command("sh", append([]string{"-c", script}, args...)...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	return cmd.Output()
}

// write writes a file of the copy and sets its time.
//
//gclint:allow io -- writes the runner's scratch copy of the tree
func write(path string, data []byte, t time.Time) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	return os.Chtimes(path, t, t)
}
