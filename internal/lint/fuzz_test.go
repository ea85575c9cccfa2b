package lint

import (
	"go/token"
	"strings"
	"testing"
)

// FuzzIgnoreDirective hammers the //scglint:ignore parser with arbitrary
// directive bodies — truncated fields, stray commas, CRLF remnants,
// non-ASCII reasons. Whatever the comment contains, parsing must not panic
// and must classify the directive exactly one of two ways:
//
//   - well-formed: every listed analyzer resolves in the catalog and the
//     reason is non-empty (the audit-trail invariant);
//   - malformed: a non-empty explanation of why, and matches() never
//     suppresses anything.
func FuzzIgnoreDirective(f *testing.F) {
	for _, seed := range []string{
		" droppederr caller closes the file",
		" panicstyle,droppederr shared rationale",
		" droppederr",
		"",
		"   ",
		" nosuchanalyzer because",
		"\thotalloc \t reason with\ttabs",
		" lockorder reason trailing CR\r",
		"\r\n telemetrylabel windows line endings",
		" hotalloc,lockorder multi analyzer",
		" hotalloc étude of a unicode reason — em dash",
		" telemetrylabel, trailing comma makes an empty name",
		",panicstyle leading comma",
		" panicstyle  ",
		" droppederr \x00 embedded NUL",
		strings.Repeat("a,", 100) + " long analyzer list",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		pos := token.Position{Filename: "fuzz.go", Line: 1, Column: 1}
		d := parseIgnoreDirective(pos, body)
		if d == nil {
			t.Fatal("parseIgnoreDirective returned nil")
		}
		if d.malformed == "" {
			if len(d.analyzers) == 0 {
				t.Fatalf("well-formed directive with no analyzers: %q", body)
			}
			for _, name := range d.analyzers {
				if _, ok := analyzerByName(name); !ok {
					t.Fatalf("well-formed directive accepted unknown analyzer %q: %q", name, body)
				}
			}
			if strings.TrimSpace(d.reason) == "" {
				t.Fatalf("well-formed directive with empty reason: %q", body)
			}
		} else {
			// A malformed directive must never suppress a finding.
			d.lo, d.hi = pos.Line, pos.Line+1
			for _, name := range AnalyzerNames() {
				if d.matches(name, pos.Line) {
					t.Fatalf("malformed directive (%s) suppresses %s: %q", d.malformed, name, body)
				}
			}
		}
	})
}

// FuzzAnnotationDirective does the same for the dataflow directive parser:
// arbitrary //scglint:<verb> bodies must never panic, an ignore body must be
// handed back to ignore.go (ok=false), and every accepted directive is
// either well-formed (known verb, non-empty reason, no complaint) or carries
// a malformed explanation and no reason — never both, never neither.
func FuzzAnnotationDirective(f *testing.F) {
	for _, seed := range []string{
		"hotpath per-edge kernel of the BFS engines",
		"coldpath error path may allocate",
		"coldpath slow-log write runs after the answer",
		"lockheld the mutex serializes writer I/O",
		"lockheld",
		"hotpath",
		"coldpath ",
		"lockheld\t",
		"ignore droppederr caller closes the file",
		"",
		"   ",
		"hotpathz typo verb",
		"HOTPATH wrong case is a typo too",
		"hotpath\treason after a tab",
		"lockheld étude of a unicode reason — em dash",
		"coldpath reason with trailing CR\r",
		"hotpath \x00 embedded NUL",
		strings.Repeat("h", 200) + " very long verb",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		kind, reason, malformed, ok := parseAnnotation(body)
		if !ok {
			if kind != "" || reason != "" || malformed != "" {
				t.Fatalf("ignore passthrough leaked fields (%q, %q, %q): %q", kind, reason, malformed, body)
			}
			return
		}
		switch {
		case malformed == "":
			if kind != annotHotpath && kind != annotColdpath && kind != annotLockHeld {
				t.Fatalf("well-formed directive with unknown verb %q: %q", kind, body)
			}
			if strings.TrimSpace(reason) == "" {
				t.Fatalf("well-formed directive with empty reason: %q", body)
			}
		default:
			if reason != "" {
				t.Fatalf("malformed directive (%s) still carries reason %q: %q", malformed, reason, body)
			}
		}
	})
}
