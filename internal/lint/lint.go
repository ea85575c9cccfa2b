// Package lint is scglint's engine: a stdlib-only static-analysis suite
// (go/ast + go/parser + go/token + go/types, no golang.org/x/tools) that
// holds this repository to the conventions its gates rest on.
//
// The catalog keeps an analyzer only if it caught a real bug here or
// enforces an invariant nothing else checks:
//
//   - panicstyle: panic messages follow the "pkg: Func: message" convention.
//   - droppederr: error return values must not be silently discarded.
//   - telemetrylabel: metric names and label keys in internal/server are
//     constants registered once, so /metricsz cardinality stays static.
//   - hotalloc: //scglint:hotpath kernels, and everything they reach
//     through the module call graph, are free of allocating constructs,
//     and the compiler reports no heap escape in the kernels' bodies.
//   - lockorder: the module's lock-acquisition graph is acyclic and no lock
//     is held across a blocking operation.
//
// Findings can be suppressed with an audit trail:
//
//	//scglint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the flagged line or the line immediately above it. Directives without a
// reason, naming an unknown analyzer, or suppressing nothing are themselves
// diagnostics, so the ignore inventory never rots.
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"

	"repro/internal/pool"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Pos locates the offending node (file:line:col).
	Pos token.Position `json:"-"`
	// File, Line, Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Analyzer names the analyzer that produced the finding ("scglint" for
	// diagnostics about ignore directives themselves).
	Analyzer string `json:"analyzer"`
	// Message states the violation.
	Message string `json:"message"`
	// Hint is a one-line suggested fix.
	Hint string `json:"hint,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Analyzer is one named invariant checker run over every loaded package.
type Analyzer struct {
	// Name is the identifier used by -only/-skip and ignore directives.
	Name string
	// Doc is a one-line description for -list and the README catalog.
	Doc string
	// Run inspects a type-checked package and reports findings.
	Run func(p *Package, report Reporter)
	// needsFacts marks analyzers built on the interprocedural facts store
	// (facts.go); Run builds the store once before fanning out when any
	// selected analyzer requires it.
	needsFacts bool
}

// Reporter receives findings from an analyzer run.
type Reporter func(pos token.Pos, message, hint string)

// Analyzers returns the full analyzer catalog in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerPanicStyle,
		analyzerDroppedErr,
		analyzerTelemetryLabel,
		analyzerHotAlloc,
		analyzerLockOrder,
	}
}

// AnalyzerNames returns the catalog names in stable order (for -list and
// error messages).
func AnalyzerNames() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// analyzerByName resolves a catalog entry; ok is false for unknown names.
func analyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run executes the given analyzers over every package of m, applies ignore
// directives, and returns the surviving findings sorted by position. Unused
// or malformed ignore directives are appended as "scglint" findings.
//
// Work fans out per package over the audited pool.Map chokepoint: each task
// runs the selected analyzers over one package and owns its findings
// slice; the shared node index is built once per package behind a
// sync.Once, and everything else an analyzer reads (type info, the facts
// store) is read-only during a run. Results are gathered in package order,
// so output is deterministic before the final position sort. The facts
// store, when any selected analyzer needs it, is built before the fan-out.
func Run(m *Module, analyzers []*Analyzer) []Finding {
	for _, a := range analyzers {
		if a.needsFacts {
			m.ensureFacts()
			break
		}
	}
	perTask, _ := pool.Map(len(m.Packages), runtime.GOMAXPROCS(0), func(i int) ([]Finding, error) {
		p := m.Packages[i]
		var out []Finding
		for _, a := range analyzers {
			a.Run(p, func(pos token.Pos, message, hint string) {
				position := m.Fset.Position(pos)
				out = append(out, Finding{
					Pos:      position,
					File:     position.Filename,
					Line:     position.Line,
					Col:      position.Column,
					Analyzer: a.Name,
					Message:  message,
					Hint:     hint,
				})
			})
		}
		return out, nil
	})
	var raw []Finding
	for _, fs := range perTask {
		raw = append(raw, fs...)
	}
	findings := applyIgnores(m, raw)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}
