package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerTelemetryLabel audits metric registration in the scgd engine
// (internal/server). The telemetry registry's core guarantee is *static*
// cardinality: every metric family and label key is a compile-time constant,
// registered exactly once at server construction, so /metricsz can never
// grow an unbounded series set from request data. The registry enforces the
// runtime half (duplicate registration panics); this analyzer enforces the
// static half:
//
//   - the metric-name argument of Registry.Counter/CounterFunc/Gauge/
//     GaugeFunc/Histogram must be an untyped constant — a name computed from
//     a variable is a series whose identity cannot be audited in source;
//   - every telemetry.Label literal passed to registration must have a
//     constant Key (the Value may vary: per-endpoint series created at
//     construction are the intended shape);
//   - labels must be listed literally, not splatted from a slice
//     (`labels...` hides the series set);
//   - registration must not happen inside a loop — per-iteration families
//     are the classic cardinality leak;
//   - instrument values (telemetry.Counter, Gauge, Histogram) must come from
//     the registry, not composite literals: a hand-built instrument is
//     invisible to /metricsz and silently diverges from /statsz.
var analyzerTelemetryLabel = &Analyzer{
	Name: "telemetrylabel",
	Doc:  "metric names and label keys in internal/server must be constants registered once, via the telemetry registry",
	Run:  runTelemetryLabel,
}

// telemetryLabelPackages are the import-path suffixes the analyzer covers.
var telemetryLabelPackages = []string{"internal/server"}

// registryMethods maps Registry method names to the index of their first
// Label argument.
var registryMethods = map[string]int{
	"Counter":     2,
	"Gauge":       2,
	"Histogram":   2,
	"CounterFunc": 3,
	"GaugeFunc":   3,
}

func runTelemetryLabel(p *Package, report Reporter) {
	if !pathHasSuffix(p.Path, telemetryLabelPackages...) {
		return
	}
	ix := p.index()
	for _, call := range ix.calls {
		method, ok := registryMethodCall(p, call)
		if !ok {
			continue
		}
		if containsPos(ix.loopBodies, call.Pos()) {
			report(call.Pos(),
				"metric registered inside a loop; the registry's cardinality is only auditable when registration happens once at construction",
				"hoist the Registry."+method+" call out of the loop, or make the varying dimension a label value")
		}
		if len(call.Args) > 0 && !isConstExpr(p, call.Args[0]) {
			report(call.Args[0].Pos(),
				"dynamically-named metric: the name argument of Registry."+method+" must be a compile-time constant",
				"use a constant metric name and move the varying part into a label value")
		}
		if call.Ellipsis != token.NoPos {
			report(call.Ellipsis,
				"labels passed by slice expansion hide the series set from audit",
				"list each telemetry.Label literal explicitly in the Registry."+method+" call")
		}
		first := registryMethods[method]
		for i, arg := range call.Args {
			if i < first {
				continue
			}
			checkLabelLiteral(p, arg, report)
		}
	}
	for _, cl := range ix.composites {
		if name, isInstr := instrumentType(p, cl); isInstr {
			report(cl.Pos(),
				"unregistered metric instrument: a hand-built telemetry."+name+" never appears on /metricsz",
				"obtain the instrument from Registry."+name+" so the scrape and /statsz read the same value")
		}
	}
}

// registryMethodCall reports whether call invokes a registration method on a
// telemetry.Registry value, returning the method name.
func registryMethodCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, known := registryMethods[sel.Sel.Name]; !known {
		return "", false
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "telemetry" {
		return sel.Sel.Name, true
	}
	return "", false
}

// checkLabelLiteral flags a telemetry.Label argument whose Key field is not
// a compile-time constant. Non-literal label expressions (a variable of type
// Label) are equally unauditable and flagged as a whole.
func checkLabelLiteral(p *Package, arg ast.Expr, report Reporter) {
	t := p.Info.TypeOf(arg)
	if t == nil || !isTelemetryType(t, "Label") {
		return
	}
	cl, ok := arg.(*ast.CompositeLit)
	if !ok {
		report(arg.Pos(),
			"label passed as an opaque value; the label key cannot be audited",
			"pass a telemetry.Label{Key: \"...\", Value: ...} literal with a constant key")
		return
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Key" && !isConstExpr(p, kv.Value) {
				report(kv.Value.Pos(),
					"label key must be a compile-time constant; dynamic keys create unbounded series cardinality",
					"use a constant key and move the varying part into the label value")
			}
			continue
		}
		// Positional literal: Label{key, value} — field 0 is Key.
		if i == 0 && !isConstExpr(p, elt) {
			report(elt.Pos(),
				"label key must be a compile-time constant; dynamic keys create unbounded series cardinality",
				"use a constant key and move the varying part into the label value")
		}
	}
}

// instrumentType reports whether cl constructs a telemetry instrument value
// (Counter, Gauge, or Histogram), returning the type name.
func instrumentType(p *Package, cl *ast.CompositeLit) (string, bool) {
	t := p.Info.TypeOf(cl)
	if t == nil {
		return "", false
	}
	for _, name := range []string{"Counter", "Gauge", "Histogram"} {
		if isTelemetryType(t, name) {
			return name, true
		}
	}
	return "", false
}

// isTelemetryType matches a named type from a package named "telemetry".
func isTelemetryType(t types.Type, name string) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "telemetry"
}

// isConstExpr reports whether the type checker evaluated e to a constant.
func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
