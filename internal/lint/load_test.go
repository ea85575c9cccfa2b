package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// writeFixture creates one file of a throwaway module under dir.
func writeFixture(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// selfModule is the repository's own module, loaded once per test binary:
// Load dominates wall time (it source-imports the standard library), so
// the tests that need the real tree share one load.
var selfModule struct {
	once sync.Once
	m    *Module
	err  error
}

// loadSelfModule returns the shared load of the enclosing repository.
func loadSelfModule(t *testing.T) *Module {
	t.Helper()
	selfModule.once.Do(func() { selfModule.m, selfModule.err = Load(".") })
	if selfModule.err != nil {
		t.Fatalf("Load(.): %v", selfModule.err)
	}
	return selfModule.m
}

// TestLoadRealModule loads the enclosing repository itself — the same path
// the CI step exercises — and sanity-checks the result: the known packages
// are present, typed, and carry position info.
func TestLoadRealModule(t *testing.T) {
	m := loadSelfModule(t)
	if m.Path != "repro" {
		t.Fatalf("module path = %q, want repro", m.Path)
	}
	want := map[string]bool{
		"repro":               false,
		"repro/internal/perm": false,
		"repro/internal/sim":  false,
		"repro/internal/obs":  false,
		"repro/internal/lint": false,
		"repro/cmd/scglint":   false,
	}
	for _, p := range m.Packages {
		if _, ok := want[p.Path]; ok {
			want[p.Path] = true
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s: missing type info", p.Path)
		}
		if len(p.Files) == 0 {
			t.Errorf("%s: no files", p.Path)
		}
		for _, f := range p.Files {
			name := m.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: test file %s was loaded", p.Path, name)
			}
			if strings.Contains(name, "testdata") {
				t.Errorf("%s: fixture file %s was loaded", p.Path, name)
			}
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", path)
		}
	}
}

// hotKernels is the pinned set of //scglint:hotpath roots: the rank and
// frontier-decode kernels, generator application, the neighbor-table
// column build and expand, the bitset level merge, and the warm-route
// distance overlay. Each has a run-time zero-allocation test
// (TestHotpathKernelsDoNotAllocate in internal/perm and internal/core,
// TestRouteHotAllocs* in internal/server); an annotation added or removed
// moves this list and those tests together.
var hotKernels = []string{
	"repro/internal/core.(*bitsetBFS).mergeWords",
	"repro/internal/core.(*column).expand",
	"repro/internal/core.(*column).fill",
	"repro/internal/perm.(Perm).ComposeInto",
	"repro/internal/perm.(Perm).Rank",
	"repro/internal/perm.UnrankInto",
	"repro/internal/server.routeDistance",
}

// TestRepoCleanUnderAllAnalyzers pins three release invariants at once:
// the repository's own tree is clean under the full analyzer catalog, it
// gets there with zero suppressions (no //scglint:ignore directives in
// production code — testdata is outside the loader's scope; the hotpath,
// coldpath and lockheld annotations carry mandatory reasons and are
// audited by the analyzers themselves, so they are not suppressions), and
// its hot roots are exactly hotKernels.
func TestRepoCleanUnderAllAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repository module")
	}
	m := loadSelfModule(t)
	for _, f := range Run(m, Analyzers()) {
		t.Errorf("repository tree is not lint-clean: %s", f)
	}
	for file, ds := range parseIgnores(m) {
		for range ds {
			t.Errorf("suppression directive in production code: %s (the tree must be clean without ignores)", file)
		}
	}
	var roots []string
	for _, r := range hotRoots(m.ensureFacts()) {
		roots = append(roots, r.ff.ID)
	}
	if !slices.Equal(roots, hotKernels) {
		t.Errorf("//scglint:hotpath roots\n  %s\nwant the pinned\n  %s", strings.Join(roots, "\n  "), strings.Join(hotKernels, "\n  "))
	}
}

// TestFindModuleRoot checks upward traversal from a nested directory.
func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	nested, err := FindModuleRoot("testdata/hotalloc/internal/kernel")
	if err != nil {
		t.Fatalf("FindModuleRoot(nested): %v", err)
	}
	if nested == root {
		t.Errorf("nested fixture resolved to the outer module root %s", root)
	}
	if !strings.HasSuffix(nested, "testdata/hotalloc") {
		t.Errorf("nested root = %s, want .../testdata/hotalloc", nested)
	}
}

// TestLoadRejectsThirdPartyImports pins the documented limitation: the
// loader resolves module-internal and standard-library imports only.
func TestLoadRejectsThirdPartyImports(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "go.mod", "module fixthird\n\ngo 1.22\n")
	writeFixture(t, dir, "x.go", "package x\n\nimport _ \"example.com/nope\"\n")
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a third-party import")
	}
}

// TestNoTestOnlyDeclarations fails on any top-level declaration of the
// root package or internal/ that no non-test code uses: an oracle that one
// package's tests compare against belongs in that package's _test.go, and
// a wrapper nothing calls goes. A use counts from any non-test package of
// the module (cmd/ and examples/ included) and from the non-test files of
// the nested scgbench module, type-checked against the loaded packages so
// that a use is matched by object, not by name. A method that satisfies
// an interface is set aside (a call through the interface names no
// method), and so is every entry of testOnlyAllowlist, whose users must
// still call it.
func TestNoTestOnlyDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repository module")
	}
	m := loadSelfModule(t)
	bench, err := checkNestedModule(m, "scgbench")
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]bool)
	for _, a := range testOnlyAllowlist {
		allowed[a.id] = true
		if len(a.users) == 0 || (a.reason == sharedByTests && len(a.users) < 2) {
			t.Errorf("allowlist entry %s must name its users (two or more packages for %q)", a.id, a.reason)
		}
		name := a.id[strings.LastIndex(a.id, ".")+1:]
		for _, u := range a.users {
			if ok, err := testsMention(m, u, name); err != nil {
				t.Error(err)
			} else if !ok {
				t.Errorf("allowlist entry %s names user %s, whose tests do not call %s", a.id, u, name)
			}
		}
	}
	found := make(map[string]bool)
	for _, d := range testOnlyDeclarations(m, bench) {
		found[d.id] = true
		if !allowed[d.id] {
			t.Errorf("%s: %s is used only by tests, or by nothing: move it into its tests, delete it, or allowlist it with its reason and users", d.pos, d.id)
		}
	}
	for _, a := range testOnlyAllowlist {
		if !found[a.id] {
			t.Errorf("allowlist entry %s is stale: non-test code uses it, or it is gone", a.id)
		}
	}
}

// Reasons a declaration that only tests call may stay in its package.
const (
	sharedByTests  = "an oracle or helper that the tests of several packages share"
	citedBenchmark = "a root benchmark or Example that README, DESIGN or EXPERIMENTS cites calls it"
	packingBound   = "a Theorem 4.8 packing bound, for ROADMAP item 5's correctness report"
)

// testOnlyAllowlist is every declaration that only tests call and that
// stays where it is. A user is a package path, or a package path and one
// of its test functions ("repro.BenchmarkTable1Ratios").
var testOnlyAllowlist = []struct {
	id, reason string
	users      []string
}{
	{"repro.AvgDistanceLowerBound", citedBenchmark, []string{"repro.BenchmarkTheorem47AverageDistance"}},
	{"repro.DegreeFormula", citedBenchmark, []string{"repro.BenchmarkAblationBalance"}},
	{"repro.EmulateStarOnMS", citedBenchmark, []string{"repro.BenchmarkStarEmulation"}},
	{"repro.Fig4Degrees", citedBenchmark, []string{"repro.BenchmarkFigure4Degrees"}},
	{"repro.Fig5Diameters", citedBenchmark, []string{"repro.BenchmarkFigure5Diameters"}},
	{"repro.Fig6Cost", citedBenchmark, []string{"repro.BenchmarkFigure6Cost"}},
	{"repro.FormatBoxes", citedBenchmark, []string{"repro.ExampleFormatBoxes"}},
	{"repro.IPInterclusterProfile", citedBenchmark, []string{"repro.BenchmarkSIPQuotient"}},
	{"repro.MSFamily", citedBenchmark, []string{"repro.BenchmarkAblationBalance"}},
	{"repro.MeasureRoutingStretch", citedBenchmark, []string{"repro.BenchmarkRoutingStretch"}},
	{"repro.NewCompleteRotationRotator", citedBenchmark, []string{"repro.BenchmarkRoutingStretch"}},
	{"repro.NewCompleteRotationStar", citedBenchmark, []string{"repro.ExampleNetwork_measure", "repro.BenchmarkRoutingStretch"}},
	{"repro.NewRecursiveMS", citedBenchmark, []string{"repro.BenchmarkAblationRecursiveMS"}},
	{"repro.NewRotationIS", citedBenchmark, []string{"repro.BenchmarkRoutingStretch"}},
	{"repro.NewRotationSubsetStar", citedBenchmark, []string{"repro.BenchmarkAblationRotationSubset"}},
	{"repro.NewTrace", citedBenchmark, []string{"repro.BenchmarkRunUnicastTrace"}},
	{"repro.RotateBoxesPair", citedBenchmark, []string{"repro.BenchmarkAblationSuperMoves"}},
	{"repro.SaturationThroughput", citedBenchmark, []string{"repro.BenchmarkSaturationThroughput"}},
	{"repro.Table1", citedBenchmark, []string{"repro.BenchmarkTable1Ratios"}},
	{"repro/internal/core.(*Graph).Connected", sharedByTests, []string{"repro", "repro/internal/core", "repro/internal/topology"}},
	{"repro/internal/core.(*IndexGraph).DiameterExact", sharedByTests, []string{"repro/internal/core", "repro/internal/topology"}},
	{"repro/internal/gen.MustSet", sharedByTests, []string{"repro/internal/core", "repro/internal/gen", "repro/internal/mcmp"}},
	{"repro/internal/metrics.InterclusterAvgLowerBound", packingBound, []string{"repro/internal/mcmp", "repro/internal/metrics"}},
	{"repro/internal/metrics.InterclusterDL", packingBound, []string{"repro/internal/ipg", "repro/internal/mcmp", "repro/internal/metrics"}},
	{"repro/internal/obs.(*Trace).Events", sharedByTests, []string{"repro/internal/obs", "repro/internal/sim"}},
	{"repro/internal/obs.(*Trace).Histogram", sharedByTests, []string{"repro/internal/obs", "repro/internal/sim"}},
	{"repro/internal/perm.ForEach", sharedByTests, []string{"repro/internal/core", "repro/internal/perm"}},
	{"repro/internal/perm.MustNew", sharedByTests, []string{"repro/internal/bag", "repro/internal/collective", "repro/internal/core", "repro/internal/gen", "repro/internal/perm"}},
	{"repro/internal/topology.(*Network).Rules", sharedByTests, []string{"repro/internal/core", "repro/internal/topology"}},
}

// testOnlyDecl is one top-level declaration that no non-test code uses.
type testOnlyDecl struct {
	id  string
	pos token.Position
}

// checkNestedModule parses and type-checks the non-test files of the
// nested module in dir (relative to m.Dir), resolving its imports of m's
// packages to the loaded ones. It returns the files' type information.
func checkNestedModule(m *Module, dir string) (*types.Info, error) {
	pkgs, err := parser.ParseDir(m.Fset, filepath.Join(m.Dir, dir), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("%s: want one package, got %d", dir, len(pkgs))
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: m.imp}
	if _, err := conf.Check(m.Path+"/"+dir, m.Fset, files, info); err != nil {
		return nil, fmt.Errorf("type-check %s: %v", dir, err)
	}
	return info, nil
}

// testsMention reports whether the _test.go files of user (a package path
// of m, optionally followed by one test function's name) call or name
// name, by spelling.
func testsMention(m *Module, user, name string) (bool, error) {
	pkg, fn := user, ""
	if i := strings.LastIndex(user, "."); i > strings.LastIndex(user, "/") {
		pkg, fn = user[:i], user[i+1:]
	}
	dir := filepath.Join(m.Dir, strings.TrimPrefix(strings.TrimPrefix(pkg, m.Path), "/"))
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		return false, fmt.Errorf("allowlist user %s: no test files in %s (%v)", user, dir, err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			return false, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); fn != "" && (!ok || fd.Name.Name != fn) {
				continue
			}
			found := false
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
			if found {
				return true, nil
			}
		}
	}
	return false, nil
}

// testOnlyDeclarations lists, in position order, the top-level
// declarations of the root package and of internal/ that no non-test code
// of m, nor other (another module's uses), names outside the declaration
// itself, methods that satisfy an interface set aside.
func testOnlyDeclarations(m *Module, other *types.Info) []testOnlyDecl {
	type span struct{ pos, end token.Pos }
	decls := make(map[types.Object]span)
	var order []types.Object
	for _, p := range m.Packages {
		if p.Path != m.Path && !strings.HasPrefix(p.Path, m.Path+"/internal/") {
			continue
		}
		add := func(name *ast.Ident, node ast.Node) {
			if name.Name == "_" || name.Name == "init" {
				return
			}
			if obj := p.Info.Defs[name]; obj != nil {
				decls[obj] = span{node.Pos(), node.End()}
				order = append(order, obj)
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, s)
							}
						}
					}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	note := func(id *ast.Ident, obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if s, ok := decls[obj]; ok && (id.Pos() < s.pos || id.Pos() >= s.end) {
			used[obj] = true
		}
	}
	for _, p := range m.Packages {
		// A method's receiver names its type without using it.
		recv := make(map[*ast.Ident]bool)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.Info.Uses {
			if !recv[id] {
				note(id, obj)
			}
		}
	}
	for id, obj := range other.Uses {
		note(id, obj)
	}
	ifaces := interfaceTypes(m)
	var out []testOnlyDecl
	for _, obj := range order {
		if used[obj] {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if satisfiesInterface(fn, ifaces) {
				continue
			}
			name = typeFuncName(fn)
		}
		out = append(out, testOnlyDecl{id: funcID(obj.Pkg().Path(), name), pos: m.Fset.Position(obj.Pos())})
	}
	return out
}

// interfaceTypes collects every interface with methods that the module's
// code can reach: the named ones in each package the module imports,
// transitively, and every interface type its expressions carry.
func interfaceTypes(m *Module) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Package]bool)
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.Packages {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method by which its receiver
// type, or a pointer to it, implements one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
