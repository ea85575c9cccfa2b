package lint

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The compiler half of hotalloc. The walk (facts.go) reads allocating
// constructs off the source; the compiler's escape analysis sees what the
// source does not spell out: a local whose address is kept past the call
// ("moved to heap: x"), a value boxed by assignment to an interface, a
// slice of a local array that outlives the frame. runEscapeRule runs
// `go build -gcflags=-m` over the packages that hold a //scglint:hotpath
// root and reports every heap escape inside a root's body, except one
//
//   - inside a panic(...) argument, the terminal path;
//   - at the opening parenthesis of a call into module code, which is
//     where the compiler reports an inlined callee's escapes: the walk
//     already vets that callee, coldpath cuts included;
//   - on a line already reported, by the walk or by an earlier escape on
//     the same line, or on a statement a //scglint:coldpath exempts.

// escapeDiag is one compiler heap-escape diagnostic.
type escapeDiag struct {
	File string // module-relative, slash-separated
	Line int
	Col  int
	Msg  string
}

// parseEscapeDiags extracts the heap-escape lines from `go build
// -gcflags=-m` output ("file:line:col: x escapes to heap", "...: moved to
// heap: x"). Package headers ("# pkg"), inlining chatter and "does not
// escape" lines are dropped.
func parseEscapeDiags(out string) []escapeDiag {
	var diags []escapeDiag
	for _, line := range strings.Split(out, "\n") {
		parts := strings.SplitN(strings.TrimSpace(line), ":", 4)
		if len(parts) != 4 {
			continue
		}
		msg := strings.TrimSpace(parts[3])
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap:") {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		col, err := strconv.Atoi(parts[2])
		if err != nil {
			continue
		}
		file := filepath.ToSlash(strings.TrimPrefix(parts[0], "./"))
		diags = append(diags, escapeDiag{File: file, Line: ln, Col: col, Msg: msg})
	}
	return diags
}

// hotRoots returns the //scglint:hotpath-annotated functions of the facts
// store, sorted by package path and then function ID.
func hotRoots(mf *moduleFacts) []funcRef {
	var out []funcRef
	for _, pkgPath := range sortedPkgPaths(mf) {
		pf := mf.byPath[pkgPath]
		for _, id := range pf.FuncIDs {
			if ff := pf.Funcs[id]; ff.Hotpath != "" {
				out = append(out, funcRef{pf, ff})
			}
		}
	}
	return out
}

// attributeEscapes buckets the diagnostics that fall inside a root's line
// span, keyed by root ID. Diagnostics outside every root are the rest of
// the module allocating normally and are dropped.
func attributeEscapes(roots []funcRef, diags []escapeDiag) map[string][]escapeDiag {
	byRoot := make(map[string][]escapeDiag)
	for _, d := range diags {
		for _, r := range roots {
			if d.File == r.ff.Pos.File && d.Line >= r.ff.Pos.Line && d.Line <= r.ff.EndLine {
				byRoot[r.ff.ID] = append(byRoot[r.ff.ID], d)
				break
			}
		}
	}
	return byRoot
}

// runEscapeRule compiles the root packages with escape diagnostics and
// records a hotalloc finding for each escape the rule above keeps. It runs
// after the hot walk, whose findings it reads, and before the unused
// directive sweep, since it can consume a statement-level coldpath.
func runEscapeRule(m *Module, mf *moduleFacts) {
	roots := hotRoots(mf)
	if len(roots) == 0 {
		return
	}
	args := []string{"build", "-gcflags=-m"}
	for i, r := range roots {
		if i == 0 || r.pf.Path != roots[i-1].pf.Path {
			args = append(args, r.pf.Path)
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = m.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		mf.addFinding(roots[0].pf.Path, factDiag{
			Pos: roots[0].ff.Pos, Analyzer: "hotalloc",
			Message: fmt.Sprintf("go %s: %v, so no hot root's escapes were checked", strings.Join(args, " "), err),
			Hint:    "run the same go build in the module root to see why it fails",
		})
		return
	}

	// reported holds the lines (Col 0) that already carry a finding.
	reported := make(map[sitePos]bool)
	for _, ds := range mf.findings {
		for _, d := range ds {
			if d.Analyzer == "hotalloc" {
				reported[sitePos{File: d.Pos.File, Line: d.Pos.Line}] = true
			}
		}
	}
	byRoot := attributeEscapes(roots, parseEscapeDiags(string(out)))
	for _, r := range roots {
		for _, d := range byRoot[r.ff.ID] {
			pos, line := sitePos{File: d.File, Line: d.Line, Col: d.Col}, sitePos{File: d.File, Line: d.Line}
			at := m.tokenPos(pos)
			if r.ff.inPanicArg(at) || r.ff.callsModuleAt(at) || reported[line] {
				continue
			}
			if ann := r.pf.cutAt(annotColdpath, d.File, d.Line); ann > 0 {
				r.pf.Annotations[ann-1].Used = true
				continue
			}
			reported[line] = true
			mf.addFinding(r.pf.Path, factDiag{
				Pos: pos, Analyzer: "hotalloc",
				Message: fmt.Sprintf("compiler: %s in hot path [%s]", d.Msg, displayName(r.pf.Path, r.ff.Name)),
				Hint:    "keep the value on the stack (no kept address, no interface assignment), or justify it with //scglint:coldpath <reason>",
			})
		}
	}
}
