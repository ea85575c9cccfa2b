package scg_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden runs every program under examples/ with `go run` and
// byte-compares its standard output with the golden.txt committed beside
// it. The examples print the simulator, fault, embedding, SIP and MCMP
// numbers the README quotes, and all of them are deterministic.
func TestExamplesGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, "main.go")); err != nil {
			continue
		}
		ran++
		t.Run(filepath.Base(dir), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(dir, "golden.txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+filepath.ToSlash(dir))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				i := 0
				for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
					i++
				}
				t.Errorf("%s: output differs from golden.txt from line %d on\n got: %q\nwant: %q",
					dir, i+1, line(gl, i), line(wl, i))
			}
		})
	}
	if ran == 0 {
		t.Fatal("no examples/*/main.go found")
	}
}

// line returns lines[i], or "" past the end.
func line(lines [][]byte, i int) string {
	if i < len(lines) {
		return string(lines[i])
	}
	return ""
}
