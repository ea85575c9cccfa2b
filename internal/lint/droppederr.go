package lint

import (
	"go/ast"
	"go/types"
)

// analyzerDroppedErr flags calls whose error result is silently discarded:
// an expression, go, or defer statement invoking a function that returns an
// error. Test files are outside the loader's scope, so the check applies to
// production code only, matching the repository convention that dropped
// errors in tests are the test author's business.
//
// A small, documented allowlist avoids noise where the error is useless by
// construction:
//
//   - fmt.Print / fmt.Printf / fmt.Println (CLI output; a failed write to
//     stdout has no recovery path),
//   - fmt.Fprint* directly to os.Stdout or os.Stderr (same reasoning),
//   - methods on strings.Builder and bytes.Buffer, and fmt.Fprint* calls
//     writing to one of them (documented to return a nil error always).
//
// Explicitly assigning to the blank identifier (`_ = f()`) is treated as a
// deliberate, visible discard and is not flagged.
var analyzerDroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "flag silently discarded error return values outside _test.go",
	Run:  runDroppedErr,
}

func runDroppedErr(p *Package, report Reporter) {
	ix := p.index()
	for _, e := range ix.exprStmts {
		if call, ok := e.X.(*ast.CallExpr); ok {
			checkDroppedErr(p, call, "call", report)
		}
	}
	for _, g := range ix.goStmts {
		checkDroppedErr(p, g.Call, "go statement", report)
	}
	for _, d := range ix.deferStmts {
		checkDroppedErr(p, d.Call, "deferred call", report)
	}
}

func checkDroppedErr(p *Package, call *ast.CallExpr, how string, report Reporter) {
	tv, ok := p.Info.Types[call]
	if !ok || !resultDropsError(tv.Type) {
		return
	}
	if droppedErrAllowed(p, call) {
		return
	}
	report(call.Pos(),
		how+" to "+callName(p, call)+" discards its error result",
		"handle the error, or make the discard explicit with `_ = ...` plus a comment")
}

// droppedErrAllowed implements the allowlist documented on the analyzer.
func droppedErrAllowed(p *Package, call *ast.CallExpr) bool {
	if path, name, ok := pkgSelector(p, call.Fun); ok && path == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 {
				if wp, wn, wok := pkgSelector(p, call.Args[0]); wok && wp == "os" && (wn == "Stdout" || wn == "Stderr") {
					return true
				}
				if tv, tok := p.Info.Types[call.Args[0]]; tok && neverFailingWriter(tv.Type) {
					return true
				}
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := p.Info.Types[sel.X]; ok && neverFailingWriter(tv.Type) {
			return true
		}
	}
	return false
}

// neverFailingWriter reports whether t is a writer documented to always
// return a nil error (in-memory accumulators).
func neverFailingWriter(t types.Type) bool {
	switch named(t) {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// named renders the (pointer-stripped) named type of t as "pkg.Name".
func named(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	nt, ok := t.(*types.Named)
	if !ok || nt.Obj().Pkg() == nil {
		return ""
	}
	return nt.Obj().Pkg().Name() + "." + nt.Obj().Name()
}

// callName renders the callee for messages ("pkg.Func", "x.Method", "f").
func callName(p *Package, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return typeString(fun.X) + "." + fun.Sel.Name
	default:
		return "function value"
	}
}
