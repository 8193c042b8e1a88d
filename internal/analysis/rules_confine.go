package analysis

// The confinement table: most of the discipline the collector depends on has
// one shape, "calls to these names may appear only in those packages". The
// write barrier (paper §2.1) holds only if raw heap stores stay inside the
// collector packages; the from-space invariant only if forwarding stays
// there too; reproducibility only if the host clock stays out of the
// simulation; crash recovery only if file I/O stays in the layers whose job
// it is. Each such rule is a row below, checked by one Appraise against the
// type-checked identifier, so a renamed import or a method value is caught
// as surely as a plain call.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
)

// Confinement is one row of the confinement table. A reference to one of
// Names — functions of package Pkg, or methods of its type Recv; builtins
// when Pkg is "" — is a finding in each package In matches (every package
// when In is empty) and NotIn does not. A row without Names confines
// importing Pkg at all. Pkg's own files never count. An entry of In or
// NotIn ending in "/" matches every package below it.
type Confinement struct {
	Rule  string
	Pkg   string
	Recv  string
	Names []string
	In    []string
	NotIn []string
	// Final marks a finding no //gclint:allow suppresses.
	Final bool
	// Why follows the callee's name in every finding: the invariant, and
	// what to do instead.
	Why string
}

// collectorPkgs are the packages allowed to touch raw heap words and
// forwarding pointers: the heap itself, the two collector implementations,
// and the checkpoint writer (which snapshots and restores raw words at pause
// boundaries, on the collector's side of the barrier). Everything else must
// go through the Mutator interface.
var collectorPkgs = []string{heapPkgPath, corePkgPath, stopcopyPkgPath, checkpointPkgPath}

// forwardRow is the from-space invariant's package half; ReadPathRule
// applies its names inside the collector packages.
var forwardRow = &Confinement{
	Rule: "forward", Pkg: heapPkgPath, Recv: "Heap",
	Names: []string{"ForwardAddr", "IsForwarded"},
	NotIn: collectorPkgs,
	Why:   "outside the collector packages: mutator code must not observe forwarding (from-space invariant); use Mutator.Header for getheader",
}

var (
	wallClockWhy    = "in internal/ or cmd/: all timing must advance the simulated clock (simtime.Clock.Charge) so runs stay bit-for-bit reproducible; host time is read only by benchmarks/host and by testing.B benchmarks in _test.go files"
	constructWhy    = "outside internal/rig: a runtime is assembled in one place; call rig.New"
	internalCmd     = []string{"repligc/internal/", "repligc/cmd/"}
	runtimeBuilders = []string{"repligc/internal/rig", "repligc/benchmarks/"}
	osFiles         = []string{"Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile", "ReadDir",
		"Mkdir", "MkdirAll", "MkdirTemp", "Remove", "RemoveAll", "Rename", "Truncate", "Stat", "Lstat",
		"Chmod", "Chtimes", "Link", "Symlink"}
)

// Confinements is the confinement table, in the order gclint -rules lists
// it. The frozen benchmark (benchmarks/) builds its own runtime and recorder.
var Confinements = []*Confinement{
	{Rule: "barrier", Pkg: heapPkgPath, Recv: "Heap",
		Names: []string{"Store", "StoreByte", "SetBytes", "StoreBytes", "AllocIn"},
		NotIn: collectorPkgs,
		Why:   "outside the collector packages bypasses the logging write barrier (paper §2.1: every mutation must reach the mutation log); use Mutator.Set/SetByte/SetByteRange/Init/Alloc"},
	{Rule: "barrier", Pkg: heapPkgPath, Recv: "Heap",
		Names: []string{"SetForward", "CopyObject", "SwapOld", "ReserveReplica", "CopyWords", "SetWord"},
		NotIn: collectorPkgs,
		Why:   "is collector mechanics: outside the collector packages it changes the heap behind the mutation log's back (paper §2.1)"},
	{Rule: "barrier", Pkg: heapPkgPath, Recv: "Heap",
		Names: []string{"Load", "LoadByte", "Bytes", "LoadBytes", "RawHeader", "Word"},
		NotIn: collectorPkgs,
		Why:   "is a raw heap read outside the collector packages; use Mutator.Get/GetByte/Bytes/GetByteRange/Header"},
	forwardRow,
	{Rule: "barrierfast", Pkg: heapPkgPath, Recv: "Heap",
		Names: []string{"SlotDirty", "MarkSlotDirty", "WordsDirty", "MarkWordsDirty"},
		Why:   "lets a store skip the logging slow path: the function's doc comment must carry \"//gclint:allow barrierfast -- <invariant>\" stating why the log still covers the skipped location"},
	{Rule: "wallclock", Pkg: "time", In: internalCmd, Why: wallClockWhy,
		Names: []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"}},
	{Rule: "wallclock", Pkg: "testing", Names: []string{"Benchmark"}, In: internalCmd, Why: wallClockWhy},
	{Rule: "io", Pkg: "os", Names: osFiles,
		In:  []string{"repligc/cmd/", checkpointPkgPath},
		Why: "touches the filesystem: the function's doc comment must carry \"//gclint:allow io -- <reason>\" naming the on-disk artifact it owns"},
	{Rule: "io", Pkg: "os", Names: osFiles, Final: true,
		In:    []string{"repligc", "repligc/internal/"},
		NotIn: []string{checkpointPkgPath, "repligc/internal/analysis"},
		Why:   "in a simulation package: file I/O belongs to cmd/ and internal/checkpoint only, and no annotation licenses it here"},
	{Rule: "panicpath", Names: []string{"panic"}, In: collectorPkgs,
		Why: "in a collector package: resource exhaustion must surface as a typed *core.OOMError (degrade, then return); if this site guards a genuine invariant, allowlist it with the invariant as the reason"},
	{Rule: "construct", Pkg: heapPkgPath, Names: []string{"New"}, NotIn: runtimeBuilders, Why: constructWhy},
	{Rule: "construct", Pkg: corePkgPath, Names: []string{"NewMutator", "NewGroup", "NewReplicating"}, NotIn: runtimeBuilders, Why: constructWhy},
	{Rule: "construct", Pkg: stopcopyPkgPath, Names: []string{"New"}, NotIn: runtimeBuilders, Why: constructWhy},
	{Rule: "recorder", Pkg: "repligc/internal/trace", Names: []string{"NewRecorder"},
		NotIn: []string{"repligc/cmd/", "repligc/benchmarks/"},
		Why:   "outside a command: a library layer must not attach a flight recorder on its own; take rig.Config.Trace from the caller"},
	{Rule: "bracket", Pkg: corePkgPath, Recv: "PauseBracket", Names: []string{"Begin", "End"},
		NotIn: []string{stopcopyPkgPath}, Final: true,
		Why: "outside the collectors: only a collector opens and closes a pause, in its one bracket, so that its record holds every pause the clock saw and says which had a budget"},
	{Rule: "runstats", Pkg: corePkgPath, Recv: "Collector", Names: []string{"Stats", "Pauses"},
		In:  []string{"repligc", "repligc/internal/bench", "repligc/internal/workload", "repligc/cmd/"},
		Why: "reads a finished run past its report; call rig.Runtime.Stats"},
	{Rule: "gctest", Pkg: "repligc/internal/gctest",
		NotIn: []string{checkpointPkgPath, "repligc/benchmarks/"},
		Why:   "outside tests: the torture driver is a test driver, imported elsewhere only by the crash matrix's reference runs"},
}

// Name implements Rule.
func (c *Confinement) Name() string { return c.Rule }

// Doc implements Rule.
func (c *Confinement) Doc() string {
	return c.callee("{"+strings.Join(c.Names, ",")+"}") + " " + c.Why
}

// callee renders name as the row's callee: "Heap.Store", "time.Now",
// "panic", or for an import row, "import of <Pkg>".
func (c *Confinement) callee(name string) string {
	switch {
	case c.Names == nil:
		return "import of " + c.Pkg
	case c.Recv != "":
		return c.Recv + "." + name
	case c.Pkg != "":
		return path.Base(c.Pkg) + "." + name
	}
	return name
}

// Appraise implements Rule: it reports each reference to one of the row's
// names, or each import of its package, in a package the row covers.
func (c *Confinement) Appraise(pass *Pass) {
	if p := pass.Pkg.Path; p == c.Pkg || c.In != nil && !within(p, c.In) || within(p, c.NotIn) {
		return
	}
	report := func(pos token.Pos, name string) {
		*pass.out = append(*pass.out, Diagnostic{
			Pos:   pass.Pkg.Fset.Position(pos),
			Rule:  c.Rule,
			Msg:   c.callee(name) + " " + c.Why,
			final: c.Final,
		})
	}
	for _, f := range pass.Pkg.Files {
		if c.Names == nil {
			for _, spec := range f.Imports {
				if p, _ := strconv.Unquote(spec.Path.Value); p == c.Pkg {
					report(spec.Pos(), "")
				}
			}
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && c.matches(pass.Pkg.Info.Uses[id]) {
				report(id.Pos(), id.Name)
			}
			return true
		})
	}
}

// matches reports whether obj is one of the row's confined functions.
func (c *Confinement) matches(obj types.Object) bool {
	if obj == nil || !slices.Contains(c.Names, obj.Name()) {
		return false
	}
	switch obj := obj.(type) {
	case *types.Builtin:
		return c.Pkg == ""
	case *types.Func:
		if c.Recv != "" {
			return funcKey(obj) == c.Pkg+"."+c.Recv+"."+obj.Name()
		}
		return funcKey(obj) == c.Pkg+"."+obj.Name()
	}
	return false
}

// within reports whether package path p is one of pkgs or, for an entry
// ending in "/", below it.
func within(p string, pkgs []string) bool {
	for _, q := range pkgs {
		if p == q || strings.HasSuffix(q, "/") && strings.HasPrefix(p, q) {
			return true
		}
	}
	return false
}

// ReadPathRule is the half of the from-space invariant no row can state:
// inside the collector packages, where forwardRow does not look, a function
// on the raw read path (named Get* or Load*, any case) must not observe
// forwarding either; only getheader-class functions may.
type ReadPathRule struct{}

// Name implements Rule.
func (*ReadPathRule) Name() string { return "forward" }

// Doc implements Rule.
func (*ReadPathRule) Doc() string {
	return "inside the collector packages, Get*/Load* functions (the raw read path) must not observe forwarding"
}

// Appraise implements Rule.
func (*ReadPathRule) Appraise(pass *Pass) {
	if !slices.Contains(collectorPkgs, pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn := strings.ToLower(fd.Name.Name); !strings.HasPrefix(fn, "get") && !strings.HasPrefix(fn, "load") {
				continue
			}
			// A function literal inside fd runs with the same discipline.
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && forwardRow.matches(pass.Pkg.Info.Uses[id]) {
					pass.Reportf(id.Pos(),
						"%s calls Heap.%s: raw read paths must not follow forwarding (from-space invariant); only getheader-class functions may",
						fd.Name.Name, id.Name)
				}
				return true
			})
		}
	}
}
