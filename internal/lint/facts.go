package lint

import (
	"fmt"
	"go/token"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/pool"
)

// The interprocedural dataflow layer.
//
// Per-package facts (which constructs allocate, which calls each function
// makes, which locks it takes) are extracted bottom-up over the import
// DAG — packages of the same DAG level in parallel via pool.Map — then the
// module-level passes consume them: the hot walk (hotalloc) follows the
// call graph from every //scglint:hotpath root, the escape rule
// (escape.go) holds the roots' bodies to the compiler's escape analysis,
// and the lock pass (lockorder.go) builds the module's lock-acquisition
// graph.

// hotpathDepth bounds the hot walk: deep enough for every real kernel
// chain, small enough that an accidental annotation on a dispatcher cannot
// drag the whole module in.
const hotpathDepth = 8

// hotStdAllowlist names the standard-library packages whose functions are
// allocation-free by contract and therefore callable from hot code.
var hotStdAllowlist = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
	"unsafe":      true,
	"runtime":     true,
	"time":        true,
}

// sitePos is a module-relative source position: the form the compiler's
// -m diagnostics (escape.go) use, and the unit annotation spans are
// matched in.
type sitePos struct {
	File string // module-relative, slash-separated
	Line int
	Col  int
}

// sitePosAt converts a fileset position into a module-relative sitePos.
func (m *Module) sitePosAt(pos token.Pos) sitePos {
	position := m.Fset.Position(pos)
	rel, err := filepath.Rel(m.Dir, position.Filename)
	if err != nil {
		rel = position.Filename
	}
	return sitePos{File: filepath.ToSlash(rel), Line: position.Line, Col: position.Column}
}

// tokenPos maps a sitePos back into the fileset so facts diagnostics can
// be reported through the ordinary Reporter path.
func (m *Module) tokenPos(sp sitePos) token.Pos {
	m.fileOnce.Do(func() {
		m.fileByName = make(map[string]*token.File)
		m.Fset.Iterate(func(f *token.File) bool {
			m.fileByName[f.Name()] = f
			return true
		})
	})
	f := m.fileByName[filepath.Join(m.Dir, filepath.FromSlash(sp.File))]
	if f == nil || sp.Line < 1 || sp.Line > f.LineCount() {
		return token.NoPos
	}
	pos := f.LineStart(sp.Line) + token.Pos(sp.Col-1)
	if max := token.Pos(f.Base() + f.Size()); pos > max {
		pos = max
	}
	return pos
}

// factDiag is one pre-positioned diagnostic carried inside the facts store
// (walk findings, malformed/unused directives), replayed per package by the
// analyzer that owns it.
type factDiag struct {
	Pos      sitePos
	Analyzer string
	Message  string
	Hint     string
}

// allocSite is one allocating construct inside a function body.
type allocSite struct {
	Pos sitePos
	// What is the rendered description ("make(...) allocates").
	What string
	// CutAnn, when non-zero, is 1 + the index of the statement-level
	// coldpath annotation (in pkgFacts.Annotations) covering this site.
	CutAnn int
	// ParentCall, when non-zero, is 1 + the index (in funcFacts.Calls) of
	// the call this interface-boxing site belongs to; if that call is
	// itself flagged, the boxing site is folded into its finding.
	ParentCall int
}

// callSite is one outgoing call edge.
type callSite struct {
	Pos sitePos
	// Lparen is the call's opening parenthesis, where the compiler reports
	// the escapes of a callee inlined there.
	Lparen token.Pos
	// Class is "internal" (module function, facts available), "std"
	// (standard library), or "dynamic" (func value, interface method).
	Class string
	// CalleePkg + CalleeName identify the callee for internal and std
	// calls (CalleeName uses the "(Recv).Name" form for methods).
	CalleePkg  string
	CalleeName string
	// Display is the human-readable callee for messages.
	Display string
	// CutAnn: as in allocSite.
	CutAnn int
}

// funcFacts is the per-function summary the module passes consume.
type funcFacts struct {
	// ID is the module-unique identifier: <pkg path>.<name>, name in the
	// "(Recv).Name" form for methods.
	ID   string
	Name string
	Pos  sitePos
	// EndLine is the last line of the declaration in Pos.File; the escape
	// rule (escape.go) attributes compiler diagnostics to hot roots by
	// this span.
	EndLine int
	// PanicArgs are the argument extents of the body's panic(...) calls,
	// exempt from alloc facts and from the escape rule.
	PanicArgs [][2]token.Pos
	// Hotpath is the annotation reason when this function is a hot root.
	Hotpath string
	// Coldpath cuts every call edge into this function; ColdAnn is 1 + the
	// annotation index so the hot walk can mark the directive used.
	Coldpath bool
	ColdAnn  int
	// MayAlloc is the transitive summary: this function, or something it
	// (un-cut) reaches, allocates. Used beyond the hot-walk depth bound.
	MayAlloc bool

	Allocs []allocSite
	Calls  []callSite

	// LockAcquires and HeldOps are the lock-discipline facts (lockfacts.go):
	// every mutex acquisition with the locks already held there, and every
	// call or directly blocking operation executed under at least one lock.
	LockAcquires []lockAcquire
	HeldOps      []heldOp
}

// inPanicArg reports whether pos lies inside a panic(...) argument.
func (ff *funcFacts) inPanicArg(pos token.Pos) bool {
	for _, s := range ff.PanicArgs {
		if pos > s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// callsModuleAt reports whether pos is the opening parenthesis of a call
// into module code.
func (ff *funcFacts) callsModuleAt(pos token.Pos) bool {
	for _, cs := range ff.Calls {
		if cs.Class == "internal" && cs.Lparen == pos {
			return true
		}
	}
	return false
}

// pkgFacts is the facts record of one package.
type pkgFacts struct {
	Path        string
	Funcs       map[string]*funcFacts
	FuncIDs     []string // sorted, for deterministic passes
	Annotations []*annotation
	Diags       []factDiag // malformed directives
}

// cutAt returns 1 + the index of a statement-anchored annotation of the
// given kind covering file:line, or 0.
func (pf *pkgFacts) cutAt(kind, file string, line int) int {
	for i, ann := range pf.Annotations {
		if ann.Kind == kind && ann.FuncID == "" && ann.Pos.File == file && line >= ann.Lo && line <= ann.Hi {
			return i + 1
		}
	}
	return 0
}

// funcRef pairs a function summary with its owning package facts.
type funcRef struct {
	pf *pkgFacts
	ff *funcFacts
}

// moduleFacts is the facts store of one loaded module, built once per
// Module (see ensureFacts) and shared by every subsequent Run.
type moduleFacts struct {
	byPath map[string]*pkgFacts
	fn     map[string]funcRef
	// findings holds the hotalloc and lockorder diagnostics of the module
	// passes keyed by package path; analyzer Run methods replay their own
	// subset.
	findings map[string][]factDiag
}

func (mf *moduleFacts) addFinding(pkgPath string, d factDiag) {
	mf.findings[pkgPath] = append(mf.findings[pkgPath], d)
}

// ensureFacts builds (or returns) the module's facts store. Safe for
// concurrent use; the build itself parallelizes over DAG levels.
func (m *Module) ensureFacts() *moduleFacts {
	m.factsOnce.Do(func() { m.facts = buildFacts(m) })
	return m.facts
}

// internalDeps lists p's module-internal imports, sorted.
func internalDeps(m *Module, p *Package) []string {
	var out []string
	for _, im := range p.Types.Imports() {
		ip := im.Path()
		if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
			out = append(out, ip)
		}
	}
	sort.Strings(out)
	return out
}

// buildFacts extracts per-package facts bottom-up over the import DAG
// (levels in parallel), then runs the module-level hot walk, escape rule
// and lock pass.
func buildFacts(m *Module) *moduleFacts {
	mf := &moduleFacts{
		byPath:   make(map[string]*pkgFacts),
		fn:       make(map[string]funcRef),
		findings: make(map[string][]factDiag),
	}
	byPath := make(map[string]*Package, len(m.Packages))
	for _, p := range m.Packages {
		byPath[p.Path] = p
	}

	// DAG depth per package: 0 for leaves, 1 + max over internal deps.
	depth := make(map[string]int)
	var depthOf func(p *Package) int
	depthOf = func(p *Package) int {
		if d, ok := depth[p.Path]; ok {
			return d
		}
		depth[p.Path] = 0 // cycle guard; Load rejects real cycles
		d := 0
		for _, dep := range internalDeps(m, p) {
			if dp := byPath[dep]; dp != nil {
				if dd := depthOf(dp) + 1; dd > d {
					d = dd
				}
			}
		}
		depth[p.Path] = d
		return d
	}
	maxDepth := 0
	for _, p := range m.Packages {
		if d := depthOf(p); d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]*Package, maxDepth+1)
	for _, p := range m.Packages {
		levels[depth[p.Path]] = append(levels[depth[p.Path]], p)
	}

	workers := runtime.GOMAXPROCS(0)
	for _, lv := range levels {
		// pool.Map cannot fail here: extraction is pure and fn returns nil.
		extracted, _ := pool.Map(len(lv), workers, func(i int) (*pkgFacts, error) {
			return extractPackageFacts(m, lv[i]), nil
		})
		// MayAlloc needs the level's deps (all in earlier levels) plus an
		// in-package fixed point.
		for _, pf := range extracted {
			mf.byPath[pf.Path] = pf
			computeMayAlloc(mf, pf)
			for _, id := range pf.FuncIDs {
				ff := pf.Funcs[id]
				if _, dup := mf.fn[ff.ID]; !dup {
					mf.fn[ff.ID] = funcRef{pf, ff}
				}
			}
		}
	}

	runHotWalk(mf)
	runEscapeRule(m, mf)
	runLockOrder(m, mf)
	sweepUnusedAnnotations(mf)
	return mf
}

// sortedPkgPaths returns the facts store's package paths in stable order.
func sortedPkgPaths(mf *moduleFacts) []string {
	paths := make([]string, 0, len(mf.byPath))
	for p := range mf.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// funcID builds the module-unique function identifier.
func funcID(pkgPath, name string) string { return pkgPath + "." + name }

// displayName renders a function for chains and messages: package base
// name plus the (possibly receiver-qualified) function name.
func displayName(pkgPath, name string) string {
	return path.Base(pkgPath) + "." + name
}

// computeMayAlloc runs the in-package fixed point over the transitive
// "may allocate" summary; cross-package callees are resolved against the
// already-built facts of earlier DAG levels.
func computeMayAlloc(mf *moduleFacts, pf *pkgFacts) {
	lookup := func(id string) *funcFacts {
		if ff, ok := pf.Funcs[id]; ok {
			return ff
		}
		if ref, ok := mf.fn[id]; ok {
			return ref.ff
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, id := range pf.FuncIDs {
			ff := pf.Funcs[id]
			if ff.MayAlloc {
				continue
			}
			if funcMayAlloc(ff, lookup) {
				ff.MayAlloc = true
				changed = true
			}
		}
	}
}

func funcMayAlloc(ff *funcFacts, lookup func(string) *funcFacts) bool {
	for _, as := range ff.Allocs {
		if as.CutAnn == 0 {
			return true
		}
	}
	for _, cs := range ff.Calls {
		if cs.CutAnn != 0 {
			continue
		}
		switch cs.Class {
		case "dynamic":
			return true
		case "std":
			if !hotStdAllowlist[cs.CalleePkg] {
				return true
			}
		case "internal":
			cf := lookup(funcID(cs.CalleePkg, cs.CalleeName))
			if cf == nil {
				return true // body-less or unresolved: assume the worst
			}
			if cf.Coldpath {
				continue
			}
			if cf.MayAlloc {
				return true
			}
		}
	}
	return false
}

// hotItem is one call-graph node queued by the hot walk.
type hotItem struct {
	id    string
	depth int
	chain string
}

// runHotWalk BFS-walks the intra-module call graph from every hotpath
// root, recording hotalloc findings (with the full chain from the root)
// and marking the coldpath directives it consumes.
func runHotWalk(mf *moduleFacts) {
	visited := make(map[string]bool)
	var queue []hotItem
	for _, pkgPath := range sortedPkgPaths(mf) {
		pf := mf.byPath[pkgPath]
		for _, id := range pf.FuncIDs {
			ff := pf.Funcs[id]
			if ff.Hotpath != "" && !visited[ff.ID] {
				visited[ff.ID] = true
				queue = append(queue, hotItem{id: ff.ID, chain: displayName(pkgPath, ff.Name)})
			}
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		ref, ok := mf.fn[it.id]
		if !ok {
			continue
		}
		ff := ref.ff
		flagged := make(map[int]bool, 2)
		for ci, cs := range ff.Calls {
			if cs.CutAnn > 0 {
				ref.pf.Annotations[cs.CutAnn-1].Used = true
				continue
			}
			switch cs.Class {
			case "dynamic":
				mf.addFinding(ref.pf.Path, factDiag{
					Pos: cs.Pos, Analyzer: "hotalloc",
					Message: fmt.Sprintf("dynamic call %s in hot path [%s]", cs.Display, it.chain),
					Hint:    "devirtualize the call, or cut the edge with //scglint:coldpath <reason>",
				})
				flagged[ci] = true
			case "std":
				if !hotStdAllowlist[cs.CalleePkg] {
					mf.addFinding(ref.pf.Path, factDiag{
						Pos: cs.Pos, Analyzer: "hotalloc",
						Message: fmt.Sprintf("call to %s in hot path [%s]: package %s is not on the allocation-free allowlist", cs.Display, it.chain, cs.CalleePkg),
						Hint:    "inline the logic or cut the edge with //scglint:coldpath <reason>",
					})
					flagged[ci] = true
				}
			case "internal":
				calleeID := funcID(cs.CalleePkg, cs.CalleeName)
				cref, found := mf.fn[calleeID]
				if !found {
					continue // declaration without body (none in this module)
				}
				if cref.ff.Coldpath {
					if cref.ff.ColdAnn > 0 {
						cref.pf.Annotations[cref.ff.ColdAnn-1].Used = true
					}
					continue
				}
				if visited[calleeID] {
					continue
				}
				if it.depth+1 <= hotpathDepth {
					visited[calleeID] = true
					queue = append(queue, hotItem{
						id:    calleeID,
						depth: it.depth + 1,
						chain: it.chain + " -> " + displayName(cs.CalleePkg, cref.ff.Name),
					})
				} else if cref.ff.MayAlloc {
					mf.addFinding(ref.pf.Path, factDiag{
						Pos: cs.Pos, Analyzer: "hotalloc",
						Message: fmt.Sprintf("call to %s exceeds the hot-path depth bound (%d) and may allocate [%s]", cs.Display, hotpathDepth, it.chain),
						Hint:    "flatten the chain, or cut the edge with //scglint:coldpath <reason>",
					})
					flagged[ci] = true
				}
			}
		}
		for _, as := range ff.Allocs {
			if as.CutAnn > 0 {
				ref.pf.Annotations[as.CutAnn-1].Used = true
				continue
			}
			if as.ParentCall > 0 && flagged[as.ParentCall-1] {
				continue // folded into the flagged call's finding
			}
			mf.addFinding(ref.pf.Path, factDiag{
				Pos: as.Pos, Analyzer: "hotalloc",
				Message: fmt.Sprintf("%s in hot path [%s]", as.What, it.chain),
				Hint:    "hoist the allocation out of the hot path, or justify it with //scglint:coldpath <reason>",
			})
		}
	}
}

// sweepUnusedAnnotations flags coldpath/lockheld directives no analysis
// consumed — the same never-rots contract ignore directives have.
func sweepUnusedAnnotations(mf *moduleFacts) {
	for _, pkgPath := range sortedPkgPaths(mf) {
		pf := mf.byPath[pkgPath]
		for _, ann := range pf.Annotations {
			if ann.Used {
				continue
			}
			switch ann.Kind {
			case annotColdpath:
				mf.addFinding(pkgPath, factDiag{
					Pos: ann.Pos, Analyzer: "hotalloc",
					Message: "unused //scglint:coldpath directive (no hot path reaches it)",
					Hint:    "delete it, or annotate the relevant root with //scglint:hotpath",
				})
			case annotLockHeld:
				mf.addFinding(pkgPath, factDiag{
					Pos: ann.Pos, Analyzer: "lockorder",
					Message: "unused //scglint:lockheld directive (it sanctions no lock-discipline finding)",
					Hint:    "delete the directive",
				})
			}
		}
	}
}
