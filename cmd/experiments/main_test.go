package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// maxKFiles are the results that depend on -maxk (Table 1's measured
// column and the exact-diameter tables); every other file comes back the
// same at any -maxk.
var maxKFiles = map[string]bool{
	"table1_alpha.txt":    true,
	"fig5_diameters.txt":  true,
	"diameter_growth.txt": true,
}

// TestResultsGolden reruns the committed reproduction (-maxk 10) into a
// temporary directory and requires every results/*.txt to come back byte
// for byte, so the paper's numbers cannot drift from the code unnoticed.
// Under -short and -race it reruns -maxk 7 and compares the files that do
// not depend on -maxk. After an intended change, regenerate with
// `go run ./cmd/experiments -out results -maxk 10`.
func TestResultsGolden(t *testing.T) {
	maxK := 10
	if testing.Short() || raceEnabled {
		maxK = 7
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) == 0 {
		t.Fatal("no committed results/*.txt found")
	}
	out := t.TempDir()
	if err := reproduce(out, maxK, "", 1, t.Logf); err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		name := filepath.Base(path)
		if maxK < 10 && maxKFiles[name] {
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Errorf("%s: not regenerated: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			i := 0
			for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
				i++
			}
			t.Errorf("%s differs from the committed file from line %d on", name, i+1)
		}
	}
}
