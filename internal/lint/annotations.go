package lint

import (
	"go/ast"
	"strings"
)

// Dataflow annotations.
//
// The interprocedural layer understands three directives beyond
// //scglint:ignore, all with a mandatory free-text reason so the inventory
// of exceptions never rots:
//
//	//scglint:hotpath <why this function must stay allocation-free>
//	//scglint:coldpath <why this call or function is allowed to allocate>
//	//scglint:lockheld <why this operation is safe under the held lock>
//
// hotpath attaches to a function declaration (in its doc comment, or as a
// trailing comment on the func line) and makes it a root of the hot-path
// allocation analysis: the function and everything reachable from it
// through the intra-module call graph must be free of allocating
// constructs.
//
// coldpath cuts the analysis. On a function declaration it cuts every call
// edge into that function (the canonical "error/logging path" escape
// hatch); on a statement it exempts the allocating constructs and call
// edges on that statement's line span, with the same anchoring rules as
// //scglint:ignore.
//
// lockheld sanctions a blocking operation or lock-order edge the lockorder
// analyzer would otherwise flag, on its line span. The canonical shapes: a
// mutex that exists precisely to serialize writer I/O, a non-blocking
// submit under an admission lock, a memoized build whose barrier is the
// point of the lock.
//
// A directive that is malformed (missing reason, unknown verb), attached
// to nothing, or never exercised by an analysis run is itself a finding,
// so every annotation in the tree stays justified and load-bearing.

// Annotation verbs understood by parseAnnotation.
const (
	annotHotpath  = "hotpath"
	annotColdpath = "coldpath"
	annotLockHeld = "lockheld"
)

// annotation is one parsed dataflow directive.
type annotation struct {
	// Kind is one of the annot* verbs.
	Kind string
	// Reason is the mandatory justification text.
	Reason string
	// Pos locates the directive comment.
	Pos sitePos
	// Lo and Hi are the inclusive line span the directive covers when it is
	// statement-anchored (own line plus the anchored statement's span).
	Lo int
	Hi int
	// FuncID names the function declaration the directive is attached to
	// ("" when statement-anchored).
	FuncID string
	// Used records whether any analysis consumed the directive.
	Used bool
}

// parseAnnotation decodes the body of a //scglint:<verb> comment (the text
// after "scglint:"). ok is false when the comment is not a dataflow
// directive at all (e.g. an ignore directive, handled by ignore.go);
// malformed is non-empty when it is one but violates the grammar. The
// parser never panics on arbitrary input (FuzzAnnotationDirective pins
// this).
func parseAnnotation(body string) (kind, reason, malformed string, ok bool) {
	verb := body
	rest := ""
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		verb, rest = body[:i], body[i+1:]
	}
	verb = strings.TrimSpace(verb)
	switch verb {
	case annotHotpath, annotColdpath, annotLockHeld:
		reason = strings.TrimSpace(rest)
		if reason == "" {
			return verb, "", "missing reason (write //scglint:" + verb + " <why>)", true
		}
		return verb, reason, "", true
	case "ignore":
		return "", "", "", false
	default:
		// An unknown verb is almost always a typo of a real directive; a
		// silent skip would quietly disable the intended annotation.
		return verb, "", "unknown directive scglint:" + truncate(verb, 40), true
	}
}

// collectAnnotations parses every dataflow directive of one file, binds
// function-level hotpath/coldpath directives to their declarations, and
// anchors the rest to statement line spans (same rules as ignore
// directives). Malformed directives come back as diagnostics.
func collectAnnotations(m *Module, p *Package, f *ast.File) (anns []*annotation, diags []factDiag) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			body, isDirective := strings.CutPrefix(text, "scglint:")
			if !isDirective {
				continue
			}
			kind, reason, malformed, ok := parseAnnotation(body)
			if !ok {
				continue // an ignore directive; ignore.go owns it
			}
			pos := m.sitePosAt(c.Pos())
			if malformed != "" {
				analyzer := "hotalloc"
				if kind == annotLockHeld {
					analyzer = "lockorder"
				}
				diags = append(diags, factDiag{
					Pos:      pos,
					Analyzer: analyzer,
					Message:  "malformed //scglint directive: " + malformed,
					Hint:     "syntax: //scglint:{hotpath|coldpath|lockheld} <reason>",
				})
				continue
			}
			anns = append(anns, &annotation{Kind: kind, Reason: reason, Pos: pos, Lo: pos.Line, Hi: pos.Line + 1})
		}
	}
	if len(anns) == 0 {
		return nil, diags
	}

	// Function binding: a hotpath or coldpath directive whose line falls in a
	// declaration's doc comment, or sits as a trailing comment on the func
	// line itself, names that declaration.
	for _, d := range f.Decls {
		fd, isFunc := d.(*ast.FuncDecl)
		if !isFunc {
			continue
		}
		declLine := m.Fset.Position(fd.Pos()).Line
		docLo := declLine
		if fd.Doc != nil {
			docLo = m.Fset.Position(fd.Doc.Pos()).Line
		}
		for _, ann := range anns {
			if ann.Kind == annotLockHeld || ann.FuncID != "" {
				continue
			}
			if ann.Pos.Line >= docLo && ann.Pos.Line <= declLine {
				ann.FuncID = funcID(p.Path, funcName(fd))
			}
		}
	}

	// Statement anchoring for everything still unbound: widen the span
	// exactly the way ignore directives anchor (own line, statement starting
	// on the same or next line, block headers only).
	var unbound []*annotation
	for _, ann := range anns {
		if ann.FuncID == "" {
			unbound = append(unbound, ann)
		}
	}
	if len(unbound) > 0 {
		ast.Inspect(f, func(n ast.Node) bool {
			s, isStmt := n.(ast.Stmt)
			if !isStmt {
				return true
			}
			lo, hi := stmtLineSpan(m.Fset, s)
			for _, ann := range unbound {
				if lo == ann.Pos.Line || lo == ann.Pos.Line+1 {
					if hi > ann.Hi {
						ann.Hi = hi
					}
				}
			}
			return true
		})
	}

	// A hotpath directive that bound to no function is an error: roots are
	// function properties, not statement properties.
	for _, ann := range anns {
		if ann.Kind == annotHotpath && ann.FuncID == "" {
			diags = append(diags, factDiag{
				Pos:      ann.Pos,
				Analyzer: "hotalloc",
				Message:  "//scglint:hotpath directive is not attached to a function declaration",
				Hint:     "place it in the doc comment of the function that must stay allocation-free",
			})
		}
	}
	return anns, diags
}
