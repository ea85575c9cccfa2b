package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Name is the package name from the source files.
	Name string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset is the shared position table (same for every package of a Module).
	Fset *token.FileSet
	// Files are the parsed sources, test files excluded, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the expression types, identifier uses/defs, and selections.
	Info *types.Info
	// idx is the lazily built shared node index (see inspect.go); idxOnce
	// guards the build now that several analyzers may touch one package
	// concurrently.
	idxOnce sync.Once
	idx     *index
	// mod points back to the owning Module so facts-backed analyzers can
	// reach the module-level store from a per-package Run.
	mod *Module
}

// Module is a fully loaded and type-checked Go module.
type Module struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is the shared position table.
	Fset *token.FileSet
	// Packages lists every non-test package in import-path order.
	Packages []*Package

	// The interprocedural facts store, built at most once per Module.
	factsOnce sync.Once
	facts     *moduleFacts
	// fileByName indexes the fileset for sitePos -> token.Pos mapping.
	fileOnce   sync.Once
	fileByName map[string]*token.File
	// imp resolves an import path to the loaded package of this module or
	// to the standard library's, so that code outside the module (a nested
	// module that imports this one) type-checks against the same objects.
	imp types.Importer
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("lint: FindModuleRoot: %v", err)
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: FindModuleRoot: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file without using
// golang.org/x/mod: the first "module <path>" directive wins.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: modulePath: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: modulePath: no module directive in %s", gomod)
}

// skipDir reports whether a directory subtree is excluded from analysis:
// hidden directories, testdata (lint fixtures live there), and non-source
// payload directories.
func skipDir(name string) bool {
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	switch name {
	case "testdata", "vendor", "results":
		return true
	}
	return false
}

// Load parses and type-checks every non-test package of the module rooted at
// (or above) dir. It uses only the standard library: module-internal imports
// are resolved against the packages being loaded, and standard-library
// imports are type-checked from GOROOT sources via go/importer's source
// mode. Third-party imports are unsupported — this repository is
// dependency-free by policy, and the loader reports any violation.
func Load(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{Dir: root, Path: modPath, Fset: fset}

	// Pass 1: parse every package directory.
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			if p != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if p != root {
				// Nested modules are separate units; do not cross into them.
				if _, statErr := os.Stat(filepath.Join(p, "go.mod")); statErr == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: Load: %v", err)
	}
	sort.Strings(dirs)

	byPath := make(map[string]*Package)
	for _, d := range dirs {
		p, err := parseDir(fset, m, root, modPath, d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			byPath[p.Path] = p
			m.Packages = append(m.Packages, p)
		}
	}
	if len(m.Packages) == 0 {
		return nil, fmt.Errorf("lint: Load: no Go packages under %s", root)
	}

	// Pass 2: type-check in dependency order. Standard-library imports fall
	// back to the source importer (shared fset keeps positions coherent).
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	checking := make(map[string]bool)
	var check func(p *Package) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		if p, ok := byPath[path]; ok {
			return check(p)
		}
		tp, err := std.Import(path)
		if err != nil {
			return nil, fmt.Errorf("import %q: %v (scglint resolves module-internal and standard-library imports only)", path, err)
		}
		return tp, nil
	})
	check = func(p *Package) (*types.Package, error) {
		if tp, ok := checked[p.Path]; ok {
			return tp, nil
		}
		if checking[p.Path] {
			return nil, fmt.Errorf("lint: Load: import cycle through %s", p.Path)
		}
		checking[p.Path] = true
		defer delete(checking, p.Path)
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		tp, err := conf.Check(p.Path, fset, p.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: Load: type-check %s: %v", p.Path, err)
		}
		p.Types = tp
		p.Info = info
		checked[p.Path] = tp
		return tp, nil
	}
	for _, p := range m.Packages {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	m.imp = imp
	return m, nil
}

// parseDir parses the non-test Go files of one directory, returning nil when
// the directory holds no Go sources.
func parseDir(fset *token.FileSet, m *Module, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: Load: %v", err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: Load: %v", err)
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	p := &Package{Path: importPath, Dir: dir, Fset: fset, mod: m}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: Load: %v", err)
		}
		if p.Name != "" && p.Name != f.Name.Name {
			return nil, fmt.Errorf("lint: Load: %s mixes packages %s and %s", dir, p.Name, f.Name.Name)
		}
		p.Name = f.Name.Name
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	return p, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
