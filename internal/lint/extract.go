package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Facts extraction: one bounded AST walk per function declaration. The
// shared analyzer index (inspect.go) is deliberately not used here — it
// records node lists only, while extraction needs details (panic extents,
// signature stacks) the index does not carry.

// extractPackageFacts builds the facts record of one package.
func extractPackageFacts(m *Module, p *Package) *pkgFacts {
	pf := &pkgFacts{Path: p.Path, Funcs: make(map[string]*funcFacts)}
	for _, f := range p.Files {
		anns, diags := collectAnnotations(m, p, f)
		pf.Annotations = append(pf.Annotations, anns...)
		pf.Diags = append(pf.Diags, diags...)
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			ff := extractFuncFacts(m, p, pf, fd)
			base := ff.ID
			for n := 2; pf.Funcs[ff.ID] != nil; n++ {
				ff.ID = fmt.Sprintf("%s#%d", base, n) // multiple init funcs
			}
			pf.Funcs[ff.ID] = ff
			pf.FuncIDs = append(pf.FuncIDs, ff.ID)
		}
	}
	sort.Strings(pf.FuncIDs)
	// Bind function-level annotations to their summaries.
	for i, ann := range pf.Annotations {
		if ann.FuncID == "" {
			continue
		}
		ff := pf.Funcs[ann.FuncID]
		if ff == nil {
			continue
		}
		switch ann.Kind {
		case annotHotpath:
			ff.Hotpath = ann.Reason
			ann.Used = true // a bound root is used by definition
		case annotColdpath:
			ff.Coldpath = true
			ff.ColdAnn = i + 1
		}
	}
	return pf
}

// typeFuncName renders a callee the way funcName renders its declaration:
// plain name, or "(Recv).Name" with the receiver relative to its package.
func typeFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
}

// pointerShaped reports whether boxing a value of type t into an
// interface is allocation-free (the value fits the data word).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// boxes reports whether passing a value of type argT where paramT is
// expected boxes it into a freshly allocated interface value.
func boxes(paramT, argT types.Type) bool {
	if paramT == nil || argT == nil {
		return false
	}
	if _, isTP := paramT.(*types.TypeParam); isTP {
		return false
	}
	return types.IsInterface(paramT) && !types.IsInterface(argT) && !pointerShaped(argT)
}

// extractor carries the per-function walk state.
type extractor struct {
	m    *Module
	p    *Package
	pf   *pkgFacts
	ff   *funcFacts
	file string // module-relative path of the file under walk

	sigStack []*types.Signature // enclosing signatures, innermost last
	stack    []ast.Node         // ancestors of the node being visited
}

// extractFuncFacts walks one declaration and records its facts. Function
// literals nested in the body are attributed to the declaration: the
// literal itself is a closure-creation alloc site, and its body's sites
// belong to the code path that created it.
func extractFuncFacts(m *Module, p *Package, pf *pkgFacts, fd *ast.FuncDecl) *funcFacts {
	name := funcName(fd)
	ff := &funcFacts{
		ID:      funcID(p.Path, name),
		Name:    name,
		Pos:     m.sitePosAt(fd.Pos()),
		EndLine: m.Fset.Position(fd.End()).Line,
	}
	e := &extractor{m: m, p: p, pf: pf, ff: ff, file: ff.Pos.File}
	if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok {
			e.sigStack = append(e.sigStack, sig)
		}
	}

	e.collectPanicSpans(fd)
	e.walk(fd)
	extractLockFacts(e, fd)
	return ff
}

// collectPanicSpans records the argument extents of panic(...) calls:
// building a panic message (fmt.Sprintf, string concat, boxing) is
// already the cold, terminal path and is exempt from alloc facts and from
// the compiler's escapes.
func (e *extractor) collectPanicSpans(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, isB := identUse(e.p, call.Fun).(*types.Builtin); isB && b.Name() == "panic" {
			e.ff.PanicArgs = append(e.ff.PanicArgs, [2]token.Pos{call.Lparen, call.Rparen})
		}
		return true
	})
}

// walk is the main facts pass over the declaration body.
func (e *extractor) walk(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			popped := e.stack[len(e.stack)-1]
			e.stack = e.stack[:len(e.stack)-1]
			if _, isLit := popped.(*ast.FuncLit); isLit {
				e.sigStack = e.sigStack[:len(e.sigStack)-1]
			}
			return true
		}
		e.stack = append(e.stack, n)
		switch t := n.(type) {
		case *ast.CallExpr:
			e.visitCall(t)
		case *ast.CompositeLit:
			e.visitComposite(t)
		case *ast.FuncLit:
			e.visitFuncLit(t)
		case *ast.BinaryExpr:
			e.visitBinary(t)
		case *ast.AssignStmt:
			e.visitAssign(t)
		case *ast.IncDecStmt:
			e.visitMapIndexWrite(t.X, t.Pos())
		case *ast.ReturnStmt:
			e.visitReturn(t)
		}
		return true
	})
}

// parent returns the immediate ancestor of the node currently being
// visited (the stack's top is the node itself).
func (e *extractor) parent() ast.Node {
	if len(e.stack) < 2 {
		return nil
	}
	return e.stack[len(e.stack)-2]
}

// addAlloc records one allocating construct unless it sits in a panic
// argument; statement-level coldpath spans are recorded as cuts, not
// dropped, so the hot walk can mark the directive used.
func (e *extractor) addAlloc(pos token.Pos, what string, parentCall int) {
	if e.ff.inPanicArg(pos) {
		return
	}
	sp := e.m.sitePosAt(pos)
	e.ff.Allocs = append(e.ff.Allocs, allocSite{
		Pos:        sp,
		What:       what,
		CutAnn:     e.pf.cutAt(annotColdpath, e.file, sp.Line),
		ParentCall: parentCall,
	})
}

func (e *extractor) visitCall(call *ast.CallExpr) {
	tv, hasTV := e.p.Info.Types[call.Fun]
	if hasTV && tv.IsType() {
		e.visitConversion(call, tv.Type)
		return
	}
	if b, isB := identUse(e.p, ast.Unparen(call.Fun)).(*types.Builtin); isB {
		switch b.Name() {
		case "make":
			e.addAlloc(call.Pos(), truncate(types.ExprString(call), 48)+" allocates", 0)
		case "new":
			e.addAlloc(call.Pos(), truncate(types.ExprString(call), 48)+" allocates", 0)
		case "append":
			e.addAlloc(call.Pos(), truncate(types.ExprString(call), 48)+" may grow its backing array", 0)
		}
		return
	}

	// Classify the call edge.
	cs := callSite{Pos: e.m.sitePosAt(call.Pos()), Lparen: call.Lparen, Class: "dynamic",
		Display: truncate(types.ExprString(call.Fun), 48)}
	var sig *types.Signature
	if hasTV && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	var calleeObj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		calleeObj = identUse(e.p, fun)
	case *ast.SelectorExpr:
		calleeObj = e.p.Info.Uses[fun.Sel]
	}
	if fn, isFn := calleeObj.(*types.Func); isFn && fn.Pkg() != nil {
		fsig, _ := fn.Type().(*types.Signature)
		ifaceRecv := fsig != nil && fsig.Recv() != nil && types.IsInterface(fsig.Recv().Type())
		if !ifaceRecv {
			pkgPath := fn.Pkg().Path()
			cs.CalleePkg = pkgPath
			cs.CalleeName = typeFuncName(fn)
			cs.Display = displayName(pkgPath, cs.CalleeName)
			if pkgPath == e.m.Path || strings.HasPrefix(pkgPath, e.m.Path+"/") {
				cs.Class = "internal"
			} else {
				cs.Class = "std"
			}
		}
	}
	if !e.ff.inPanicArg(call.Pos()) {
		cs.CutAnn = e.pf.cutAt(annotColdpath, e.file, cs.Pos.Line)
		e.ff.Calls = append(e.ff.Calls, cs)
		e.recordArgBoxing(call, sig, len(e.ff.Calls))
	}
}

// recordArgBoxing flags concrete non-pointer-shaped arguments passed to
// interface parameters. Composite and function literals are skipped: they
// record their own alloc site, and one construct gets one finding.
func (e *extractor) recordArgBoxing(call *ast.CallExpr, sig *types.Signature, parentCall int) {
	if sig == nil || call.Ellipsis.IsValid() {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, isSlice := sig.Params().At(np - 1).Type().(*types.Slice); isSlice {
				paramT = s.Elem()
			}
		case i < np:
			paramT = sig.Params().At(i).Type()
		}
		switch arg.(type) {
		case *ast.CompositeLit, *ast.FuncLit:
			continue
		}
		atv, found := e.p.Info.Types[arg]
		if !found || atv.IsNil() || !boxes(paramT, atv.Type) {
			continue
		}
		e.addAlloc(arg.Pos(),
			fmt.Sprintf("interface boxing: argument %d to %s allocates", i+1, truncate(types.ExprString(call.Fun), 40)),
			parentCall)
	}
}

// visitConversion flags the converting calls that copy memory: string ↔
// []byte/[]rune, and rune/int → string.
func (e *extractor) visitConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	atv, found := e.p.Info.Types[call.Args[0]]
	if !found || atv.Type == nil || atv.Value != nil {
		return // constant conversions fold at compile time
	}
	from := atv.Type
	if convAllocates(from, to) {
		e.addAlloc(call.Pos(), "conversion "+truncate(types.ExprString(call), 48)+" allocates", 0)
	}
}

func convAllocates(from, to types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	isIntegral := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	switch {
	case isString(to) && (isByteOrRuneSlice(from) || isIntegral(from)):
		return true
	case isByteOrRuneSlice(to) && isString(from):
		return true
	}
	return false
}

func (e *extractor) visitComposite(lit *ast.CompositeLit) {
	// Only the outermost literal of a nesting records: the inner ones are
	// part of the same construct.
	for _, anc := range e.stack[:len(e.stack)-1] {
		if _, isLit := anc.(*ast.CompositeLit); isLit {
			return
		}
	}
	e.addAlloc(lit.Pos(), "composite literal "+truncate(types.ExprString(lit), 40)+" allocates", 0)
}

func (e *extractor) visitFuncLit(lit *ast.FuncLit) {
	var sig *types.Signature
	if tv, found := e.p.Info.Types[lit]; found && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	e.sigStack = append(e.sigStack, sig) // popped when the literal pops
	e.addAlloc(lit.Pos(), "closure creation allocates", 0)
}

func (e *extractor) visitBinary(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, found := e.p.Info.Types[b]
	if !found || tv.Type == nil || tv.Value != nil {
		return // constant-folded
	}
	if bt, ok := tv.Type.Underlying().(*types.Basic); !ok || bt.Info()&types.IsString == 0 {
		return
	}
	// Only the outermost ADD of a concat chain records.
	if pb, isB := e.parent().(*ast.BinaryExpr); isB && pb.Op == token.ADD {
		return
	}
	e.addAlloc(b.Pos(), "string concatenation allocates", 0)
}

func (e *extractor) visitAssign(s *ast.AssignStmt) {
	for _, l := range s.Lhs {
		e.visitMapIndexWrite(l, l.Pos())
	}
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
		if tv, found := e.p.Info.Types[s.Lhs[0]]; found && tv.Type != nil {
			if bt, ok := tv.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
				e.addAlloc(s.Pos(), "string concatenation allocates", 0)
			}
		}
	}
}

func (e *extractor) visitMapIndexWrite(lhs ast.Expr, pos token.Pos) {
	idx, isIdx := ast.Unparen(lhs).(*ast.IndexExpr)
	if !isIdx {
		return
	}
	tv, found := e.p.Info.Types[idx.X]
	if !found || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		e.addAlloc(pos, "map write may allocate", 0)
	}
}

func (e *extractor) visitReturn(r *ast.ReturnStmt) {
	if len(r.Results) == 0 || len(e.sigStack) == 0 {
		return
	}
	sig := e.sigStack[len(e.sigStack)-1]
	if sig == nil {
		return
	}
	if sig.Results().Len() != len(r.Results) {
		return // single-call multi-value return
	}
	for i, res := range r.Results {
		switch res.(type) {
		case *ast.CompositeLit, *ast.FuncLit:
			continue // records its own site
		}
		atv, found := e.p.Info.Types[res]
		if !found || atv.IsNil() || !boxes(sig.Results().At(i).Type(), atv.Type) {
			continue
		}
		e.addAlloc(res.Pos(), "interface boxing at return allocates", 0)
	}
}
