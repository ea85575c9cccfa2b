package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestResultsGolden reruns the committed reproduction (-maxk 7) into a
// temporary directory and requires every results/*.txt to come back byte
// for byte, so the paper's numbers cannot drift from the code unnoticed.
// After an intended change, regenerate with
// `go run ./cmd/experiments -out results -maxk 7`.
func TestResultsGolden(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) == 0 {
		t.Fatal("no committed results/*.txt found")
	}
	out := t.TempDir()
	if err := reproduce(out, 7, "", 1, t.Logf); err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
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
