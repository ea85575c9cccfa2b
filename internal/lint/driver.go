package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/version"
)

// Exit codes of the scglint driver, mirroring the go vet contract.
const (
	// ExitClean means no findings.
	ExitClean = 0
	// ExitFindings means the run produced at least one diagnostic.
	ExitFindings = 1
	// ExitError means the driver itself failed (bad flags, unloadable
	// module, unknown analyzer).
	ExitError = 2
)

// Main runs the scglint driver: it loads the module containing dir (or the
// working directory), runs the selected analyzers, prints findings to
// stdout, and returns the process exit code. It is the whole of
// cmd/scglint, factored here so the exit-code contract is unit-testable.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scglint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit findings as a JSON array")
		only     = fs.String("only", "", "comma-separated analyzers to run (default: all)")
		skip     = fs.String("skip", "", "comma-separated analyzers to skip")
		list     = fs.Bool("list", false, "list analyzers and exit")
		chdir    = fs.String("C", ".", "directory whose enclosing module is analyzed")
		showDocs = fs.Bool("v", false, "with -list, include analyzer documentation")
		showVer  = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		_, _ = fmt.Fprintf(stderr, "usage: scglint [flags] [packages]\n\n")
		_, _ = fmt.Fprintf(stderr, "scglint analyzes every non-test package of the enclosing Go module;\n")
		_, _ = fmt.Fprintf(stderr, "package patterns such as ./... are accepted for familiarity and ignored.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	if *showVer {
		_, _ = fmt.Fprintln(stdout, version.String("scglint"))
		return ExitClean
	}
	if *list {
		for _, a := range Analyzers() {
			if *showDocs {
				_, _ = fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
			} else {
				_, _ = fmt.Fprintln(stdout, a.Name)
			}
		}
		return ExitClean
	}
	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "scglint:", err)
		return ExitError
	}
	m, err := Load(*chdir)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "scglint:", err)
		return ExitError
	}
	findings := Run(m, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			_, _ = fmt.Fprintln(stderr, "scglint:", err)
			return ExitError
		}
	} else {
		for _, f := range findings {
			_, _ = fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			_, _ = fmt.Fprintf(stdout, "scglint: %d finding(s) in %s\n", len(findings), m.Path)
		}
	}
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// selectAnalyzers applies -only / -skip to the catalog.
func selectAnalyzers(only, skip string) ([]*Analyzer, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("selectAnalyzers: -only and -skip are mutually exclusive")
	}
	if only != "" {
		var out []*Analyzer
		for _, name := range strings.Split(only, ",") {
			name = strings.TrimSpace(name)
			a, ok := analyzerByName(name)
			if !ok {
				return nil, unknownAnalyzerError(name)
			}
			out = append(out, a)
		}
		return out, nil
	}
	skipped := make(map[string]bool)
	for _, name := range strings.Split(skip, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := analyzerByName(name); !ok {
			return nil, unknownAnalyzerError(name)
		}
		skipped[name] = true
	}
	var out []*Analyzer
	for _, a := range Analyzers() {
		if !skipped[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// unknownAnalyzerError names the rejected analyzer and lists the valid ones,
// so a typo in a CI config is diagnosable from the failure message alone.
func unknownAnalyzerError(name string) error {
	return fmt.Errorf("selectAnalyzers: unknown analyzer %q (valid: %s)",
		name, strings.Join(AnalyzerNames(), ", "))
}
