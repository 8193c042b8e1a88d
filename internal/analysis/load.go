package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for rule passes.
type Package struct {
	// Path is the import path the rules see; fixture packages in tests can
	// masquerade as any path to exercise path-scoped rules.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Loader type-checks the packages the go tool lists, each once. One
// `go list -deps -export` run per module supplies every package's
// directory, its files as chosen by build constraints for the host
// platform, and the standard library's export data. Module packages are
// parsed and type-checked from source on first import, and every importer
// gets that same *types.Package, so a call across a package boundary holds
// the *types.Func the callee's package declared. The standard library is
// read from export data. Test files are excluded: the rules police the
// shipped system, and tests legitimately reach around the discipline to
// corrupt heaps and simulate failures. A Loader is not safe for concurrent
// use.
type Loader struct {
	fset  *token.FileSet
	list  map[string]*listed
	roots []string            // import paths of the module packages the patterns matched
	pkgs  map[string]*Package // module packages type-checked so far
	std   types.Importer
}

// NewLoader lists patterns (go list patterns, relative to dir) and returns
// a loader over the result. go list does not enter a nested module, so a
// local pattern naming one's directory (./benchmarks/host, or with /...) is
// listed from inside it, in a run of its own.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	l := &Loader{
		fset: token.NewFileSet(),
		list: make(map[string]*listed),
		pkgs: make(map[string]*Package),
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := l.list[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s in the package list", path)
	})
	var dirs []string
	byDir := make(map[string][]string)
	for _, pat := range patterns {
		at := dir
		if base, _, _ := strings.Cut(pat, "/..."); strings.HasPrefix(pat, ".") && filepath.Clean(base) != "." {
			if _, err := os.Stat(filepath.Join(dir, base, "go.mod")); err == nil {
				at, pat = filepath.Join(dir, base), "."+pat[len(base):]
			}
		}
		if byDir[at] == nil {
			dirs = append(dirs, at)
		}
		byDir[at] = append(byDir[at], pat)
	}
	for _, at := range dirs {
		if err := l.goList(at, byDir[at]); err != nil {
			return nil, err
		}
	}
	sort.Strings(l.roots)
	return l, nil
}

// goList runs one `go list` in dir and adds its records to the list; a
// package two runs list keeps its first record.
func (l *Loader) goList(dir string, patterns []string) error {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly", "--"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return fmt.Errorf("reading go list output: %v", err)
		}
		if l.list[p.ImportPath] == nil {
			l.list[p.ImportPath] = p
		}
		if !p.Standard && !p.DepOnly {
			l.roots = append(l.roots, p.ImportPath)
		}
	}
	return nil
}

// Packages returns the module packages the patterns matched, by import path.
func (l *Loader) Packages() ([]*Package, error) {
	var pkgs []*Package
	for _, path := range l.roots {
		pkg, err := l.module(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Import makes the Loader the types.Importer of every package it checks:
// the standard library from export data, module packages from source, once.
func (l *Loader) Import(path string) (*types.Package, error) {
	p := l.list[path]
	if p == nil || p.Standard {
		return l.std.Import(path)
	}
	pkg, err := l.module(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// module returns the listed module package at path, type-checking it and,
// through Import, its module dependencies on first use.
func (l *Loader) module(path string) (*Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	p := l.list[path]
	pkg, err := l.check(p.Dir, path, p.GoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Load parses and type-checks the package in dir, a directory go list does
// not reach (a test fixture under testdata), as if its import path were
// path: fixture packages masquerade as rule-scoped paths. It reads every
// non-test .go file in dir. The result is never cached, so a fixture never
// stands in for the real package of its path; its imports resolve as any
// other package's do and must be in the list.
func (l *Loader) Load(dir, path string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
			files = append(files, filepath.Base(name))
		}
	}
	return l.check(dir, path, files)
}

// check parses files (names in dir) and type-checks them as package path.
func (l *Loader) check(dir, path string, names []string) (*Package, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := cfg.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
