package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseEscapeDiags feeds a canned `go build -gcflags=-m` transcript
// through the parser: only heap-escape lines survive, package headers,
// inlining chatter and "does not escape" lines are dropped, and
// "./"-prefixed paths normalize to the module-relative form the facts
// store uses.
func TestParseEscapeDiags(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/core",
		"internal/core/bfs.go:10:6: can inline levelSize",
		"internal/core/bfs.go:42:13: frontier escapes to heap",
		"./internal/core/bfs.go:57:2: moved to heap: dist",
		"internal/core/bfs.go:60:19: inlining call to levelSize",
		"internal/core/bfs.go:61:7: \"x escapes to heap\" does not escape",
		"not-a-diag-line",
		"bad:line:escapes to heap",
		"",
		"internal/sim/run.go:7:9: make([]byte, n) escapes to heap",
	}, "\n")
	got := parseEscapeDiags(out)
	want := []escapeDiag{
		{File: "internal/core/bfs.go", Line: 42, Col: 13, Msg: "frontier escapes to heap"},
		{File: "internal/core/bfs.go", Line: 57, Col: 2, Msg: "moved to heap: dist"},
		{File: "internal/sim/run.go", Line: 7, Col: 9, Msg: "make([]byte, n) escapes to heap"},
	}
	if len(got) != len(want) {
		t.Fatalf("parseEscapeDiags: got %d diags, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAttributeEscapes checks the span bucketing: a diagnostic belongs to
// a root iff it lands in the root's file between its first and last line;
// everything else is the rest of the module allocating normally.
func TestAttributeEscapes(t *testing.T) {
	roots := []funcRef{
		{ff: &funcFacts{ID: "m/a.Kernel", Pos: sitePos{File: "a/a.go", Line: 10}, EndLine: 20, Hotpath: "x"}},
		{ff: &funcFacts{ID: "m/b.Other", Pos: sitePos{File: "b/b.go", Line: 5}, EndLine: 9, Hotpath: "y"}},
	}
	diags := []escapeDiag{
		{File: "a/a.go", Line: 10, Msg: "first line"},
		{File: "a/a.go", Line: 20, Msg: "last line"},
		{File: "a/a.go", Line: 21, Msg: "past the end"},
		{File: "a/a.go", Line: 9, Msg: "before the start"},
		{File: "b/b.go", Line: 7, Msg: "other kernel"},
		{File: "c/c.go", Line: 7, Msg: "unrelated file"},
	}
	byRoot := attributeEscapes(roots, diags)
	if n := len(byRoot["m/a.Kernel"]); n != 2 {
		t.Errorf("m/a.Kernel: got %d diags, want 2: %v", n, byRoot["m/a.Kernel"])
	}
	if n := len(byRoot["m/b.Other"]); n != 1 {
		t.Errorf("m/b.Other: got %d diags, want 1: %v", n, byRoot["m/b.Other"])
	}
	total := 0
	for _, ds := range byRoot {
		total += len(ds)
	}
	if total != 3 {
		t.Errorf("attributed %d diags in total, want 3 (the rest are outside every root)", total)
	}
}

// TestRunEscapeGateEndToEnd runs the escape gate, hotalloc's compiler
// half, as scglint does: on a module written to a temp dir and compiled
// there. A hot root that keeps a local's address fails the run with the
// compiler's own diagnostic at the local; the same module with the root
// annotation on a function that stays on the stack passes.
func TestRunEscapeGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a module; skipped in -short")
	}
	dir := t.TempDir()
	writeFile := func(rel, src string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const src = `package a

//scglint:hotpath fixture kernel that deliberately leaks a local
func Escapes() *int {
	x := 42
	return &x
}

// Clean stays on the stack.
func Clean(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}
`
	writeFile("go.mod", "module fixescape\n\ngo 1.22\n")
	writeFile("a/a.go", src)

	var out, errOut bytes.Buffer
	if code := Main([]string{"-C", dir, "-only", "hotalloc"}, &out, &errOut); code != ExitFindings {
		t.Fatalf("leaking root: exit %d, want %d\n%s%s", code, ExitFindings, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "a.go:5:2: [hotalloc] compiler: moved to heap: x in hot path") ||
		!strings.Contains(out.String(), "scglint: 1 finding(s) in fixescape") {
		t.Errorf("leaking-root output misses the diagnostic:\n%s", out.String())
	}

	clean := strings.Replace(src, "//scglint:hotpath fixture kernel that deliberately leaks a local\n", "", 1)
	clean = strings.Replace(clean, "// Clean stays on the stack.", "//scglint:hotpath fixture kernel that stays on the stack", 1)
	writeFile("a/a.go", clean)
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-C", dir, "-only", "hotalloc"}, &out, &errOut); code != ExitClean {
		t.Fatalf("clean root: exit %d, want %d\n%s%s", code, ExitClean, out.String(), errOut.String())
	}
}
