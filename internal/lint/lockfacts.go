package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lock-discipline fact extraction.
//
// One ordered statement walk per function body tracks the set of sync
// mutexes held at each point (an abstract, path-insensitive approximation:
// a lock acquired inside a branch is considered released when the branch
// rejoins, a lock followed by `defer Unlock` is held to the end of the
// function). Two kinds of facts come out:
//
//   - lockAcquire: a Lock/RLock call, with the locks already held there.
//     These are the direct edges of the module-wide lock-acquisition graph
//     (lockorder.go).
//   - heldOp: an internal call or a directly blocking operation (channel
//     send/recv, select without default, time.Sleep, pool barriers and
//     submits, file/network/stream I/O) executed while at least one lock
//     is held. Blocking operations are recorded even with nothing held, as
//     the seed of the transitive may-block summary.
//
// Function literals are their own synchronization scope: a closure does
// not inherit the creator's held set (it usually runs on another
// goroutine, or after the creator released), and a literal spawned by a go
// statement is marked Async so its acquisitions stay out of the creator's
// transitive summary. The walker never panics on malformed or partial
// lock pairings — an unmatched Unlock pops nothing, an unmatched Lock is
// simply held to the end (FuzzLockFacts pins this).

// lockAcquire is one mutex acquisition site.
type lockAcquire struct {
	Pos sitePos
	// Lock is the canonical lock identity: "<pkg>.(<Type>).<field>" for
	// receiver/struct fields, "<pkg>.<var>" for package-level vars, and
	// "<funcID>:<expr>" for function-local or unresolvable lockers.
	Lock string
	// Read marks RLock (shared) acquisitions.
	Read bool
	// Held lists the locks already held at this site, outermost first.
	Held []string
	// Async marks acquisitions inside a go-statement literal: concurrent
	// with the creator, excluded from its transitive summary.
	Async bool
	// SanctionAnn, when non-zero, is 1 + the index of the lockheld
	// annotation covering this site.
	SanctionAnn int
}

// heldOp is one operation observed by the lock walker: Kind "call" is an
// internal call made while locks are held (the interprocedural edge
// source); Kind "block" is a directly blocking operation, recorded
// unconditionally so the may-block summary has its seeds.
type heldOp struct {
	Pos  sitePos
	Kind string // "call" | "block"
	Held []string
	// CalleePkg and CalleeName identify the callee of a "call" op.
	CalleePkg  string
	CalleeName string
	// What describes the operation for messages ("channel send",
	// "call to pool.Each (worker barrier)").
	What  string
	Async bool
	// SanctionAnn: as in lockAcquire.
	SanctionAnn int
}

// heldLock is one entry of the walker's held stack.
type heldLock struct {
	id   string
	read bool
	// toReturn marks a lock released by a deferred Unlock: it stays held
	// for the rest of the function.
	toReturn bool
}

// lockWalker carries the per-scope walk state.
type lockWalker struct {
	e     *extractor
	held  []heldLock
	async bool
	// muteChan suppresses channel-op recording inside select communication
	// clauses: the select itself is the blocking (or guarded) construct.
	muteChan bool
}

// extractLockFacts runs the lock walk over one declaration: the body
// first, then every function literal as its own scope.
func extractLockFacts(e *extractor, fd *ast.FuncDecl) {
	(&lockWalker{e: e}).stmts(fd.Body.List)

	asyncLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
				asyncLits[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// Nested literals are found by this same scan and walked with
			// their own scope; stmts/expr below never descend into one.
			(&lockWalker{e: e, async: asyncLits[lit]}).stmts(lit.Body.List)
		}
		return true
	})
}

func (lw *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		lw.stmt(s)
	}
}

// branch walks a conditionally executed statement on a copy of the held
// stack: acquisitions and releases inside the branch are observed there
// but do not leak into the fall-through state (path-insensitive join).
func (lw *lockWalker) branch(s ast.Stmt) {
	if s == nil {
		return
	}
	saved := append([]heldLock(nil), lw.held...)
	lw.stmt(s)
	lw.held = saved
}

func (lw *lockWalker) stmt(s ast.Stmt) {
	switch t := s.(type) {
	case nil:
	case *ast.BlockStmt:
		lw.stmts(t.List)
	case *ast.LabeledStmt:
		lw.stmt(t.Stmt)
	case *ast.ExprStmt:
		lw.expr(t.X)
	case *ast.AssignStmt:
		for _, r := range t.Rhs {
			lw.expr(r)
		}
		for _, l := range t.Lhs {
			lw.expr(l)
		}
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, isVS := spec.(*ast.ValueSpec); isVS {
					for _, v := range vs.Values {
						lw.expr(v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		lw.expr(t.X)
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			lw.expr(r)
		}
	case *ast.SendStmt:
		lw.expr(t.Chan)
		lw.expr(t.Value)
		lw.chanOp(t.Arrow, "channel send")
	case *ast.GoStmt:
		// The call runs on another goroutine; only its argument (and
		// receiver) expressions evaluate here.
		lw.callOperands(t.Call)
	case *ast.DeferStmt:
		lw.deferStmt(t)
	case *ast.IfStmt:
		lw.stmt(t.Init)
		lw.expr(t.Cond)
		lw.branch(t.Body)
		lw.branch(t.Else)
	case *ast.ForStmt:
		lw.stmt(t.Init)
		lw.expr(t.Cond)
		lw.branch(t.Body)
		lw.branch(t.Post)
	case *ast.RangeStmt:
		lw.expr(t.X)
		if tv, ok := lw.e.p.Info.Types[t.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				lw.chanOp(t.For, "range over channel")
			}
		}
		lw.branch(t.Body)
	case *ast.SwitchStmt:
		lw.stmt(t.Init)
		lw.expr(t.Tag)
		for _, cl := range t.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, x := range cc.List {
					lw.expr(x)
				}
				lw.branch(&ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.TypeSwitchStmt:
		lw.stmt(t.Init)
		lw.stmt(t.Assign)
		for _, cl := range t.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lw.branch(&ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.SelectStmt:
		lw.selectStmt(t)
	}
}

// selectStmt records a blocking op for a select without default (the
// communication clauses themselves are muted either way: the select is the
// synchronization construct, guarded when a default exists).
func (lw *lockWalker) selectStmt(s *ast.SelectStmt) {
	hasDefault := false
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		lw.chanOp(s.Select, "select without default")
	}
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		saved := lw.muteChan
		lw.muteChan = true
		lw.stmt(cc.Comm)
		lw.muteChan = saved
		lw.branch(&ast.BlockStmt{List: cc.Body})
	}
}

// deferStmt handles `defer x.Unlock()` (marks the matching lock as held to
// return) and evaluates the operands of any other deferred call — they run
// now even though the call itself runs at exit.
func (lw *lockWalker) deferStmt(d *ast.DeferStmt) {
	if op, ok := mutexOp(lw.e.p, d.Call); ok && (op == "Unlock" || op == "RUnlock") {
		id := lw.lockIdentity(d.Call)
		for i := len(lw.held) - 1; i >= 0; i-- {
			if lw.held[i].id == id {
				lw.held[i].toReturn = true
				return
			}
		}
		return
	}
	lw.callOperands(d.Call)
}

// callOperands evaluates only the operand expressions of a call whose
// invocation does not happen here (go / defer).
func (lw *lockWalker) callOperands(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		lw.expr(sel.X)
	}
	for _, a := range call.Args {
		lw.expr(a)
	}
}

// expr scans an expression in evaluation-adjacent order for calls and
// channel receives, never descending into function literals.
func (lw *lockWalker) expr(x ast.Expr) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lw.call(t)
		case *ast.UnaryExpr:
			if t.Op == token.ARROW {
				lw.chanOp(t.OpPos, "channel receive")
			}
		}
		return true
	})
}

// heldIDs snapshots the currently held lock identities, outermost first.
func (lw *lockWalker) heldIDs() []string {
	if len(lw.held) == 0 {
		return nil
	}
	out := make([]string, len(lw.held))
	for i, h := range lw.held {
		out[i] = h.id
	}
	return out
}

func (lw *lockWalker) sanctionAt(pos token.Pos) (sitePos, int) {
	sp := lw.e.m.sitePosAt(pos)
	return sp, lw.e.pf.cutAt(annotLockHeld, lw.e.file, sp.Line)
}

// chanOp records a channel-level blocking operation.
func (lw *lockWalker) chanOp(pos token.Pos, what string) {
	if lw.muteChan {
		return
	}
	lw.blockOp(pos, what)
}

func (lw *lockWalker) blockOp(pos token.Pos, what string) {
	sp, cut := lw.sanctionAt(pos)
	lw.e.ff.HeldOps = append(lw.e.ff.HeldOps, heldOp{
		Pos: sp, Kind: "block", Held: lw.heldIDs(),
		What: what, Async: lw.async, SanctionAnn: cut,
	})
}

// call classifies one call expression: mutex operation, named blocking
// operation, or (when locks are held) an internal call edge.
func (lw *lockWalker) call(call *ast.CallExpr) {
	p := lw.e.p
	if op, ok := mutexOp(p, call); ok {
		id := lw.lockIdentity(call)
		switch op {
		case "Lock", "RLock":
			sp, cut := lw.sanctionAt(call.Pos())
			lw.e.ff.LockAcquires = append(lw.e.ff.LockAcquires, lockAcquire{
				Pos: sp, Lock: id, Read: op == "RLock",
				Held: lw.heldIDs(), Async: lw.async, SanctionAnn: cut,
			})
			lw.held = append(lw.held, heldLock{id: id, read: op == "RLock"})
		case "Unlock", "RUnlock":
			for i := len(lw.held) - 1; i >= 0; i-- {
				if lw.held[i].id == id {
					lw.held = append(lw.held[:i], lw.held[i+1:]...)
					break
				}
			}
		}
		return
	}

	var calleeObj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		calleeObj = identUse(p, fun)
	case *ast.SelectorExpr:
		calleeObj = p.Info.Uses[fun.Sel]
	}
	fn, isFn := calleeObj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return // dynamic: no facts to connect, no named blocking match
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return
	}
	pkgPath, name := fn.Pkg().Path(), typeFuncName(fn)

	if what, blocks := blockingCallee(pkgPath, name); blocks {
		sp, cut := lw.sanctionAt(call.Pos())
		lw.e.ff.HeldOps = append(lw.e.ff.HeldOps, heldOp{
			Pos: sp, Kind: "block", Held: lw.heldIDs(),
			CalleePkg: pkgPath, CalleeName: name,
			What:  "call to " + displayName(pkgPath, name) + " (" + what + ")",
			Async: lw.async, SanctionAnn: cut,
		})
		return
	}
	if len(lw.held) == 0 {
		return
	}
	if pkgPath == lw.e.m.Path || pathHasPrefix(pkgPath, lw.e.m.Path) {
		sp, cut := lw.sanctionAt(call.Pos())
		lw.e.ff.HeldOps = append(lw.e.ff.HeldOps, heldOp{
			Pos: sp, Kind: "call", Held: lw.heldIDs(),
			CalleePkg: pkgPath, CalleeName: name,
			What:  "call to " + displayName(pkgPath, name),
			Async: lw.async, SanctionAnn: cut,
		})
	}
}

// pathHasPrefix reports whether pkgPath is under modPath.
func pathHasPrefix(pkgPath, modPath string) bool {
	return len(pkgPath) > len(modPath) && pkgPath[:len(modPath)] == modPath && pkgPath[len(modPath)] == '/'
}

// mutexOp reports whether call invokes a sync.Mutex / sync.RWMutex lock
// method (directly or through an embedded field) and which one.
func mutexOp(p *Package, call *ast.CallExpr) (op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn, isFn := p.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", false
	}
	if named := namedOf(sig.Recv().Type()); named == nil ||
		(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", false
	}
	return fn.Name(), true
}

// namedOf strips one level of pointer and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// lockIdentity resolves the mutex a Lock/Unlock call operates on to a
// canonical, module-wide identity. Receiver fields resolve to the owning
// named type regardless of which variable holds the struct; package-level
// vars to their package; everything else (locals, map elements, call
// results) is scoped to the enclosing function, which keeps unresolvable
// lockers from aliasing across functions.
func (lw *lockWalker) lockIdentity(call *ast.CallExpr) string {
	p := lw.e.p
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel == nil {
		return lw.e.ff.ID + ":?"
	}
	// Embedded mutex: the method selection steps through fields; the lock
	// is owned by the receiver expression's named type.
	if s, ok := p.Info.Selections[sel]; ok && len(s.Index()) > 1 {
		if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ").<embedded>"
		}
	}
	return lw.lockExprIdentity(sel.X)
}

func (lw *lockWalker) lockExprIdentity(x ast.Expr) string {
	p := lw.e.p
	switch t := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		// Struct field s.mu (possibly through pointers / nested fields):
		// identity is the field's owning named type.
		if s, ok := p.Info.Selections[t]; ok && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + t.Sel.Name
			}
		}
		// Qualified package-level var pkg.Mu.
		if v, ok := p.Info.Uses[t.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := identUse(p, t).(*types.Var); ok && !v.IsField() {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return lw.e.ff.ID + ":" + v.Name()
		}
	case *ast.StarExpr:
		return lw.lockExprIdentity(t.X)
	}
	return lw.e.ff.ID + ":" + truncate(types.ExprString(x), 40)
}

// blockingCallee names the operations the lock walker treats as blocking:
// pool barriers, gates and submits, wait-group waits, sleeps, and the
// standard-library calls that perform file, network, or stream I/O. The
// description is used verbatim in messages.
func blockingCallee(pkgPath, name string) (string, bool) {
	if pathHasSuffix(pkgPath, "internal/pool") {
		switch name {
		case "Map", "Each":
			return "worker barrier", true
		case "(*Gate).Enter":
			return "semaphore wait", true
		case "(*Runner).Submit":
			return "queue submit", true
		case "(*Runner).Close":
			return "worker drain", true
		}
		return "", false
	}
	switch pkgPath {
	case "time":
		if name == "Sleep" {
			return "sleep", true
		}
	case "sync":
		if name == "(*WaitGroup).Wait" {
			return "wait-group wait", true
		}
	case "net", "net/http":
		return "network I/O", true
	case "bufio":
		switch name {
		case "(*Reader).Read", "(*Reader).ReadByte", "(*Reader).ReadString", "(*Reader).ReadBytes",
			"(*Writer).Flush", "(*Writer).Write", "(*Writer).WriteString", "(*Scanner).Scan":
			return "buffered I/O", true
		}
	case "os":
		switch name {
		case "(*File).Read", "(*File).Write", "(*File).WriteString", "(*File).Sync", "(*File).Close",
			"ReadFile", "WriteFile", "Open", "OpenFile", "Create", "CreateTemp",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir", "Stat":
			return "file I/O", true
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "WriteString":
			return "stream I/O", true
		}
	case "encoding/json":
		switch name {
		case "(*Encoder).Encode", "(*Decoder).Decode", "(*Decoder).Token", "(*Decoder).More":
			return "stream I/O", true
		}
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln":
			return "writer I/O", true
		}
	case "log":
		return "logger I/O", true
	}
	return "", false
}
