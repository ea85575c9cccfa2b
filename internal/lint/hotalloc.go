package lint

// hotalloc: functions annotated //scglint:hotpath — and everything they
// reach through the intra-module call graph, up to hotpathDepth calls —
// must be free of allocating constructs: make/new, composite literals,
// append (backing-array growth), map writes, string concatenation and
// copying conversions, closure creation, and interface boxing at call
// sites and returns. //scglint:coldpath cuts an edge (on a function) or
// exempts a statement's span; every finding carries the full call chain
// from the annotated root. Calls into the standard library are allowed
// only for the allocation-free allowlist (math, math/bits, sync,
// sync/atomic, unsafe, runtime, time); dynamic calls (func values,
// interface methods) cannot be analyzed and are findings themselves.
// The roots' own bodies are also held to the compiler's escape analysis
// (escape.go), which catches a kept local address or boxing by
// assignment that no construct above names.
//
// The analysis runs on the module facts store (facts.go): the per-package
// Run below replays the findings of the module-level hot walk and escape
// rule.
var analyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//scglint:hotpath call graphs must be allocation-free, and the roots' bodies free of compiler heap escapes (coldpath cuts edges; findings carry the chain from the root)",
	Run: func(p *Package, report Reporter) {
		replayFactDiags(p, "hotalloc", report)
	},
	needsFacts: true,
}

// replayFactDiags reports the facts-store diagnostics owned by one analyzer
// for one package: the module-pass findings plus the malformed-directive
// diagnostics recorded at extraction time.
func replayFactDiags(p *Package, analyzer string, report Reporter) {
	mf := p.mod.ensureFacts()
	for _, d := range mf.findings[p.Path] {
		if d.Analyzer == analyzer {
			report(p.mod.tokenPos(d.Pos), d.Message, d.Hint)
		}
	}
	if pf := mf.byPath[p.Path]; pf != nil {
		for _, d := range pf.Diags {
			if d.Analyzer == analyzer {
				report(p.mod.tokenPos(d.Pos), d.Message, d.Hint)
			}
		}
	}
}
