package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantMarker tags a fixture line that must produce a finding:
//
//	offendingCode() //lintwant <message substring>
//
// Every marker must be matched by exactly one finding on its line, and every
// finding must land on a marked line — both directions are golden.
const wantMarker = "//lintwant "

// expectation is one parsed marker.
type expectation struct {
	file string
	line int
	sub  string
}

// parseExpectations scans every fixture .go file under dir for markers.
func parseExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	var out []expectation
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, wantMarker)
			if idx < 0 {
				continue
			}
			out = append(out, expectation{
				file: p,
				line: i + 1,
				sub:  strings.TrimSpace(line[idx+len(wantMarker):]),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parseExpectations(%s): %v", dir, err)
	}
	return out
}

// runFixture loads the mini-module under testdata/<name>, runs the single
// named analyzer, and cross-checks findings against the //lintwant markers.
func runFixture(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	a, ok := analyzerByName(name)
	if !ok {
		t.Fatalf("no analyzer named %q", name)
	}
	findings := Run(m, []*Analyzer{a})
	wants := parseExpectations(t, dir)

	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || f.Line != w.line {
				continue
			}
			if filepath.Base(f.File) != filepath.Base(w.file) {
				continue
			}
			if !strings.Contains(f.Message, w.sub) {
				t.Errorf("%s:%d: finding %q does not contain wanted substring %q", w.file, w.line, f.Message, w.sub)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: expected a %s finding containing %q, got none", w.file, w.line, name, w.sub)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestPanicStyleGolden(t *testing.T)     { runFixture(t, "panicstyle") }
func TestDroppedErrGolden(t *testing.T)     { runFixture(t, "droppederr") }
func TestTelemetryLabelGolden(t *testing.T) { runFixture(t, "telemetrylabel") }
func TestHotAllocGolden(t *testing.T)       { runFixture(t, "hotalloc") }
func TestLockOrderGolden(t *testing.T)      { runFixture(t, "lockorder") }
