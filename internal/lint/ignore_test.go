package lint

import (
	"go/token"
	"strings"
	"testing"
)

// TestIgnoreDirectives exercises the suppression machinery end to end on the
// testdata/ignore fixture: trailing and own-line directives suppress
// (including across the full line span of a multi-line statement),
// directives without effect or without a reason are findings themselves, and
// an unsuppressed violation still fires. A regression in statement-span
// anchoring shows up here as either a surviving droppederr finding (the
// multi-line case) or an unused-directive count bump.
func TestIgnoreDirectives(t *testing.T) {
	m, err := Load("testdata/ignore")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings := Run(m, Analyzers())

	var (
		unused, malformed, dropped int
	)
	for _, f := range findings {
		switch {
		case f.Analyzer == "scglint" && strings.Contains(f.Message, "unused"):
			unused++
		case f.Analyzer == "scglint" && strings.Contains(f.Message, "malformed"):
			malformed++
		case f.Analyzer == "droppederr":
			dropped++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if unused != 1 {
		t.Errorf("unused-directive findings = %d, want 1", unused)
	}
	if malformed != 1 {
		t.Errorf("malformed-directive findings = %d, want 1", malformed)
	}
	// The reasonless directive must not suppress the finding it sits on.
	if dropped != 1 {
		t.Errorf("surviving droppederr findings = %d, want 1 (from the malformed-directive line)", dropped)
	}
}

// TestParseIgnoreDirective checks directive parsing corner cases directly.
func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		body      string
		analyzers int
		malformed bool
	}{
		{" droppederr caller closes the file", 1, false},
		{" panicstyle,droppederr shared rationale", 2, false},
		{" droppederr", 1, true},             // no reason
		{"", 0, true},                        // nothing at all
		{" nosuchanalyzer because", 1, true}, // unknown analyzer
	}
	for _, c := range cases {
		d := parseIgnoreDirective(token.Position{Filename: "x.go", Line: 1, Column: 1}, c.body)
		if (d.malformed != "") != c.malformed {
			t.Errorf("parseIgnoreDirective(%q): malformed=%q, want malformed=%v", c.body, d.malformed, c.malformed)
		}
		if !c.malformed && len(d.analyzers) != c.analyzers {
			t.Errorf("parseIgnoreDirective(%q): %d analyzers, want %d", c.body, len(d.analyzers), c.analyzers)
		}
	}
}
