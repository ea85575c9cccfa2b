package lint

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strconv"
	"sync"
)

// analyzerPanicStyle enforces the repository's panic-message convention:
// every panic whose message is statically known (a string literal, or
// fmt.Sprintf / fmt.Errorf with a literal format) must read
//
//	pkg: Func: message
//
// i.e. start with the package name, then a function-ish segment, then the
// message, separated by ": ". The convention makes a panic traceable to its
// origin from the message alone — load-bearing in fault-injection runs where
// stacks are captured far from the failing routine. Panics that rethrow a
// non-constant value (panic(err), panic(r)) are not checkable and are
// skipped.
var analyzerPanicStyle = &Analyzer{
	Name: "panicstyle",
	Doc:  "enforce the `pkg: Func: message` panic-message convention",
	Run:  runPanicStyle,
}

func runPanicStyle(p *Package, report Reporter) {
	for _, call := range p.index().calls {
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" || len(call.Args) != 1 {
			continue
		}
		msg, ok := staticPanicMessage(p, call.Args[0])
		if !ok {
			continue
		}
		if !panicStyleRE(p.Name).MatchString(msg) {
			report(call.Pos(),
				"panic message "+strconv.Quote(truncate(msg, 60))+" does not follow the `"+p.Name+": Func: message` convention",
				"prefix the message with the package and function name, e.g. \""+p.Name+": MyFunc: ...\"")
		}
	}
}

// staticPanicMessage extracts the compile-time-known message of a panic
// argument: a string literal, a constant string expression, or the format
// literal of fmt.Sprintf / fmt.Errorf.
func staticPanicMessage(p *Package, arg ast.Expr) (string, bool) {
	if call, ok := arg.(*ast.CallExpr); ok {
		if pkgFuncCall(p, call, "fmt", "Sprintf") || pkgFuncCall(p, call, "fmt", "Errorf") {
			if len(call.Args) == 0 {
				return "", false
			}
			return stringConstant(p, call.Args[0])
		}
		return "", false
	}
	return stringConstant(p, arg)
}

// stringConstant returns the value of a constant string expression.
func stringConstant(p *Package, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// panicStyleCache memoizes the per-package pattern; Run analyzes packages
// concurrently, so access is mutex-guarded.
var (
	panicStyleMu    sync.Mutex
	panicStyleCache = map[string]*regexp.Regexp{}
)

// panicStyleRE matches `<pkg>: <Func-ish>: <message>`. The middle segment
// is a function or method name, optionally with rendered arguments or a
// format verb standing in for a dynamic name, e.g. "Identity(%d)",
// "ComposeInto", or "%s.Apply".
func panicStyleRE(pkg string) *regexp.Regexp {
	panicStyleMu.Lock()
	defer panicStyleMu.Unlock()
	if re, ok := panicStyleCache[pkg]; ok {
		return re
	}
	re := regexp.MustCompile(`^` + regexp.QuoteMeta(pkg) + `: [%A-Za-z_(*][^:]*: .+`)
	panicStyleCache[pkg] = re
	return re
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
