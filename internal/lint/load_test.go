package lint

import (
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
