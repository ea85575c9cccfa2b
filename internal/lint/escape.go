package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// escapegate: the compiler's escape analysis, held to a committed budget.
//
// `scglint -escapes` (shared with `benchreport -escapes`) runs
// `go build -gcflags=-m ./...`, keeps the heap-escape diagnostics that
// fall inside a //scglint:hotpath kernel's line span, and compares the
// per-kernel counts against results/escape_budget.json — in both
// directions. A kernel with more escapes than budgeted fails with the
// exact diagnostic lines; a kernel missing from the budget fails; a
// budget entry for a vanished kernel, or a budget looser than reality,
// fails too, so the committed file always states exactly what the
// compiler proves.
//
// In a plain `scglint` run the analyzer contributes no findings (it would
// cost a full recompile); it is in the catalog so -list names the gate.
var analyzerEscapeGate = &Analyzer{
	Name: "escapegate",
	Doc:  "(-escapes) //scglint:hotpath kernels must match the committed per-kernel heap-escape budget (results/escape_budget.json) exactly",
	Run:  func(*Package, Reporter) {},
}

// escapeBudgetSchema versions the committed budget file.
const escapeBudgetSchema = "scglint-escapes/v1"

// DefaultEscapeBudgetPath is the committed budget location, relative to
// the module root.
const DefaultEscapeBudgetPath = "results/escape_budget.json"

// EscapeBudget is the committed per-kernel heap-escape budget.
type EscapeBudget struct {
	Schema string `json:"schema"`
	// Kernels maps a hotpath kernel's function ID to the number of
	// heap-escape diagnostics the compiler reports inside its body.
	Kernels map[string]int `json:"kernels"`
}

// escapeDiag is one compiler heap-escape diagnostic.
type escapeDiag struct {
	File string // module-relative, slash-separated
	Line int
	Msg  string
}

func (d escapeDiag) String() string {
	return fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Msg)
}

// parseEscapeDiags extracts the heap-escape lines from `go build
// -gcflags=-m` output ("file:line:col: x escapes to heap", "... moved to
// heap: x"). Package headers ("# pkg") and inlining chatter are dropped.
func parseEscapeDiags(out string) []escapeDiag {
	var diags []escapeDiag
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		file := filepath.ToSlash(strings.TrimPrefix(parts[0], "./"))
		diags = append(diags, escapeDiag{File: file, Line: ln, Msg: strings.TrimSpace(parts[3])})
	}
	return diags
}

// hotpathKernels returns the //scglint:hotpath-annotated functions of the
// facts store, sorted by ID.
func hotpathKernels(mf *moduleFacts) []*funcFacts {
	var out []*funcFacts
	for _, pkgPath := range sortedPkgPaths(mf) {
		pf := mf.byPath[pkgPath]
		for _, id := range pf.FuncIDs {
			if ff := pf.Funcs[id]; ff.Hotpath != "" {
				out = append(out, ff)
			}
		}
	}
	return out
}

// attributeEscapes buckets the diagnostics that fall inside a kernel's
// line span, keyed by kernel ID. Diagnostics outside every kernel are the
// rest of the module allocating normally and are dropped.
func attributeEscapes(kernels []*funcFacts, diags []escapeDiag) map[string][]escapeDiag {
	byKernel := make(map[string][]escapeDiag)
	for _, d := range diags {
		for _, k := range kernels {
			if d.File == k.Pos.File && d.Line >= k.Pos.Line && d.Line <= k.EndLine {
				byKernel[k.ID] = append(byKernel[k.ID], d)
				break
			}
		}
	}
	return byKernel
}

// compareEscapeBudget checks kernels against the committed budget in both
// directions and returns one message per violation, sorted.
func compareEscapeBudget(kernels []*funcFacts, byKernel map[string][]escapeDiag, budget *EscapeBudget) []string {
	var violations []string
	known := make(map[string]bool, len(kernels))
	for _, k := range kernels {
		known[k.ID] = true
		got := byKernel[k.ID]
		want, budgeted := budget.Kernels[k.ID]
		switch {
		case !budgeted:
			violations = append(violations, fmt.Sprintf(
				"unbudgeted hotpath kernel %s: %d heap escape(s); add it to the committed budget (-escapes-update)", k.ID, len(got)))
		case len(got) > want:
			lines := make([]string, len(got))
			for i, d := range got {
				lines[i] = "  " + d.String()
			}
			violations = append(violations, fmt.Sprintf(
				"kernel %s exceeds its escape budget (%d > %d):\n%s", k.ID, len(got), want, strings.Join(lines, "\n")))
		case len(got) < want:
			violations = append(violations, fmt.Sprintf(
				"stale escape budget for kernel %s: budget %d, compiler reports %d; tighten the committed budget (-escapes-update)", k.ID, want, len(got)))
		}
	}
	for id := range budget.Kernels {
		if !known[id] {
			violations = append(violations, fmt.Sprintf(
				"stale escape budget entry %s: no //scglint:hotpath kernel has this ID; remove it (-escapes-update)", id))
		}
	}
	sort.Strings(violations)
	return violations
}

// compilerEscapes runs the compiler over the module and returns its
// escape diagnostics.
func compilerEscapes(m *Module) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = m.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return parseEscapeDiags(string(out)), nil
}

// RunEscapeGate is the -escapes mode: it compiles the module with escape
// diagnostics, attributes them to the hotpath kernels, and either checks
// the committed budget (printing violations to stdout, go-vet exit codes)
// or rewrites it (update). budgetPath "" means DefaultEscapeBudgetPath
// under the module root.
func RunEscapeGate(m *Module, budgetPath string, update bool, stdout, stderr io.Writer) int {
	if budgetPath == "" {
		budgetPath = filepath.Join(m.Dir, filepath.FromSlash(DefaultEscapeBudgetPath))
	}
	diags, err := compilerEscapes(m)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "scglint:", err)
		return ExitError
	}
	kernels := hotpathKernels(m.ensureFacts())
	byKernel := attributeEscapes(kernels, diags)

	if update {
		budget := &EscapeBudget{Schema: escapeBudgetSchema, Kernels: make(map[string]int, len(kernels))}
		for _, k := range kernels {
			budget.Kernels[k.ID] = len(byKernel[k.ID])
		}
		data, err := json.MarshalIndent(budget, "", "  ")
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "scglint:", err)
			return ExitError
		}
		if err := os.MkdirAll(filepath.Dir(budgetPath), 0o755); err != nil {
			_, _ = fmt.Fprintln(stderr, "scglint:", err)
			return ExitError
		}
		if err := os.WriteFile(budgetPath, append(data, '\n'), 0o644); err != nil {
			_, _ = fmt.Fprintln(stderr, "scglint:", err)
			return ExitError
		}
		_, _ = fmt.Fprintf(stdout, "scglint: escape budget for %d kernel(s) written to %s\n", len(kernels), budgetPath)
		return ExitClean
	}

	data, err := os.ReadFile(budgetPath)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "scglint: reading escape budget: %v (bootstrap with -escapes -escapes-update)\n", err)
		return ExitError
	}
	budget := &EscapeBudget{}
	if err := json.Unmarshal(data, budget); err != nil {
		_, _ = fmt.Fprintf(stderr, "scglint: parsing escape budget %s: %v\n", budgetPath, err)
		return ExitError
	}
	if budget.Schema != escapeBudgetSchema {
		_, _ = fmt.Fprintf(stderr, "scglint: escape budget %s has schema %q, want %q; regenerate with -escapes-update\n",
			budgetPath, budget.Schema, escapeBudgetSchema)
		return ExitError
	}
	violations := compareEscapeBudget(kernels, byKernel, budget)
	for _, v := range violations {
		_, _ = fmt.Fprintf(stdout, "[escapegate] %s\n", v)
	}
	if len(violations) > 0 {
		_, _ = fmt.Fprintf(stdout, "scglint: %d escape-budget violation(s) in %s\n", len(violations), m.Path)
		return ExitFindings
	}
	_, _ = fmt.Fprintf(stdout, "scglint: %d hotpath kernel(s) within the committed escape budget\n", len(kernels))
	return ExitClean
}
