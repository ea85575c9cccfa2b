package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestDriverExitCodeContract pins the go vet-style exit-code contract of the
// scglint driver: 0 on a clean tree, 1 with file:line diagnostics on a tree
// with findings, 2 when the driver itself cannot run.
func TestDriverExitCodeContract(t *testing.T) {
	t.Run("clean module exits 0", func(t *testing.T) {
		var out, errOut bytes.Buffer
		code := Main([]string{"-C", "testdata/clean", "./..."}, &out, &errOut)
		if code != ExitClean {
			t.Fatalf("exit code = %d, want %d (stderr: %s)", code, ExitClean, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("clean run printed: %q", out.String())
		}
	})

	t.Run("bad module exits 1 with diagnostics", func(t *testing.T) {
		var out, errOut bytes.Buffer
		code := Main([]string{"-C", "testdata/droppederr", "./..."}, &out, &errOut)
		if code != ExitFindings {
			t.Fatalf("exit code = %d, want %d (stderr: %s)", code, ExitFindings, errOut.String())
		}
		text := out.String()
		for _, want := range []string{
			"work.go:17:", // the bare mayFail() finding carries file:line
			"[droppederr]",
			"call to mayFail discards its error result",
			"deferred call to f.Close discards its error result",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("output missing %q:\n%s", want, text)
			}
		}
	})

	t.Run("unloadable module exits 2", func(t *testing.T) {
		var out, errOut bytes.Buffer
		code := Main([]string{"-C", "/nonexistent-scglint-dir"}, &out, &errOut)
		if code != ExitError {
			t.Fatalf("exit code = %d, want %d", code, ExitError)
		}
		if !strings.Contains(errOut.String(), "scglint:") {
			t.Errorf("stderr missing driver error: %q", errOut.String())
		}
	})

	t.Run("unknown analyzer exits 2", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := Main([]string{"-only", "bogus", "-C", "testdata/clean"}, &out, &errOut); code != ExitError {
			t.Fatalf("exit code = %d, want %d", code, ExitError)
		}
	})

	t.Run("only and skip are exclusive", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := Main([]string{"-only", "panicstyle", "-skip", "droppederr", "-C", "testdata/clean"}, &out, &errOut); code != ExitError {
			t.Fatalf("exit code = %d, want %d", code, ExitError)
		}
	})
}

// TestDriverJSON checks that -json emits a parseable array of findings with
// positions and analyzer names.
func TestDriverJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := Main([]string{"-json", "-C", "testdata/droppederr"}, &out, &errOut)
	if code != ExitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, ExitFindings, errOut.String())
	}
	var findings []Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output has no findings")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
}

// TestDriverSelection checks -only and -skip narrow the analyzer set.
func TestDriverSelection(t *testing.T) {
	var out, errOut bytes.Buffer
	// The droppederr fixture trips droppederr only; skipping it must leave
	// the tree clean, and so must running any one other analyzer.
	if code := Main([]string{"-skip", "droppederr", "-C", "testdata/droppederr"}, &out, &errOut); code != ExitClean {
		t.Fatalf("-skip droppederr: exit code = %d, want %d\n%s", code, ExitClean, out.String())
	}
	out.Reset()
	if code := Main([]string{"-only", "panicstyle", "-C", "testdata/droppederr"}, &out, &errOut); code != ExitClean {
		t.Fatalf("-only panicstyle: exit code = %d, want %d\n%s", code, ExitClean, out.String())
	}
}

// TestDriverUnknownAnalyzerMessage pins the -only/-skip error contract: an
// unknown name exits 2 and the message carries the full valid-name list, so
// a typo in a CI config is self-diagnosing.
func TestDriverUnknownAnalyzerMessage(t *testing.T) {
	for _, flagName := range []string{"-only", "-skip"} {
		var out, errOut bytes.Buffer
		code := Main([]string{flagName, "lockordr", "-C", "testdata/clean"}, &out, &errOut)
		if code != ExitError {
			t.Fatalf("%s lockordr: exit code = %d, want %d", flagName, code, ExitError)
		}
		msg := errOut.String()
		if !strings.Contains(msg, `unknown analyzer "lockordr"`) {
			t.Errorf("%s: error does not name the bad analyzer: %q", flagName, msg)
		}
		for _, name := range AnalyzerNames() {
			if !strings.Contains(msg, name) {
				t.Errorf("%s: error is missing valid name %s: %q", flagName, name, msg)
			}
		}
	}
	// An empty element in -only is a hard error too (likely a stray comma).
	var out, errOut bytes.Buffer
	if code := Main([]string{"-only", "droppederr,", "-C", "testdata/clean"}, &out, &errOut); code != ExitError {
		t.Fatalf("-only droppederr,: exit code = %d, want %d", code, ExitError)
	}
}

// TestDriverList checks -list prints exactly the catalog, in order.
func TestDriverList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Main([]string{"-list"}, &out, &errOut); code != ExitClean {
		t.Fatalf("-list: exit code = %d", code)
	}
	const want = "panicstyle\ndroppederr\ntelemetrylabel\nhotalloc\nlockorder\n"
	if out.String() != want {
		t.Errorf("-list printed %q, want %q", out.String(), want)
	}
}
