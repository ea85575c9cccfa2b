package lint

import (
	"go/ast"
	"go/token"
)

// The shared one-pass AST index.
//
// The syntactic analyzers (panicstyle, droppederr, telemetrylabel) read
// their node shapes from one walk per package, built lazily on first use,
// instead of each running its own ast.Inspect over every file.

// index is the per-package one-pass node catalog.
type index struct {
	calls      []*ast.CallExpr
	exprStmts  []*ast.ExprStmt
	goStmts    []*ast.GoStmt
	deferStmts []*ast.DeferStmt
	composites []*ast.CompositeLit
	// loopBodies records the position extent of every for/range body, for
	// analyzers that forbid a shape inside loops (telemetrylabel).
	loopBodies []posExtent
}

// posExtent is one node's [Pos, End) span.
type posExtent struct {
	from, to token.Pos
}

// containsPos reports whether pos falls inside any recorded extent.
func containsPos(extents []posExtent, pos token.Pos) bool {
	for _, e := range extents {
		if pos >= e.from && pos < e.to {
			return true
		}
	}
	return false
}

// index returns the lazily built index, stored on the Package so every
// analyzer in a run shares it. Run fans packages out concurrently, so the
// build is once-guarded.
func (p *Package) index() *index {
	p.idxOnce.Do(func() {
		p.idx = buildIndex(p)
	})
	return p.idx
}

func buildIndex(p *Package) *index {
	ix := &index{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.CallExpr:
				ix.calls = append(ix.calls, t)
			case *ast.ExprStmt:
				ix.exprStmts = append(ix.exprStmts, t)
			case *ast.GoStmt:
				ix.goStmts = append(ix.goStmts, t)
			case *ast.DeferStmt:
				ix.deferStmts = append(ix.deferStmts, t)
			case *ast.CompositeLit:
				ix.composites = append(ix.composites, t)
			case *ast.ForStmt:
				ix.loopBodies = append(ix.loopBodies, posExtent{t.Body.Pos(), t.Body.End()})
			case *ast.RangeStmt:
				ix.loopBodies = append(ix.loopBodies, posExtent{t.Body.Pos(), t.Body.End()})
			}
			return true
		})
	}
	return ix
}
