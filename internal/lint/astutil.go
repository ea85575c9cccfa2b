package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgFuncCall reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now), resolving the package qualifier through
// the type info so aliased imports are handled.
func pkgFuncCall(p *Package, call *ast.CallExpr, pkgPath, name string) bool {
	path, sel, ok := pkgSelector(p, call.Fun)
	return ok && path == pkgPath && sel == name
}

// pkgSelector decodes expr as a qualified identifier pkg.Sel and returns the
// imported package path and selected name.
func pkgSelector(p *Package, expr ast.Expr) (pkgPath, name string, ok bool) {
	sel, isSel := expr.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// resultDropsError reports whether t (the type of a call expression) carries
// an error value that an expression statement would discard.
func resultDropsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// funcName renders a function declaration name for messages, including the
// receiver type for methods ("(*Trace).OnStep").
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := typeString(fd.Recv.List[0].Type)
	return "(" + recv + ")." + fd.Name.Name
}

// typeString renders simple type expressions without a fileset.
func typeString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeString(t.X)
	case *ast.SelectorExpr:
		return typeString(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return typeString(t.X) + "[...]"
	case *ast.IndexListExpr:
		return typeString(t.X) + "[...]"
	default:
		return "?"
	}
}

// pathHasSuffix reports whether the import path ends with one of the given
// slash-delimited suffixes (matching whole path segments).
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// identUse resolves an identifier to its object, or nil.
func identUse(p *Package, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
