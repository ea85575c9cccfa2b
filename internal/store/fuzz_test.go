package store

import (
	"bytes"
	"os"
	"testing"
)

// Two star(1,3) entries written by the encoder of the neighbor-section
// era: profileOnlyFile decodes unchanged; neighborFile carries the k!·deg
// neighbor rows under flag bit 1 and decodes to ErrSchema.
const (
	profileOnlyFile = "testdata/star-1-3.scgp"
	neighborFile    = "testdata/star-1-3-neighbors.scgp"
)

// FuzzStoreDecode throws arbitrary bytes at the scgstore/v1 decoder. The
// decoder fronts every file the daemon reads at startup, so it must never
// panic or over-allocate on hostile input — any damage shape decodes to an
// error. When a mutation does decode cleanly, the entry must re-encode and
// decode to the same bytes (the format is canonical).
func FuzzStoreDecode(f *testing.F) {
	for _, path := range []string{profileOnlyFile, neighborFile} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0xFF}, headerLen+trailerLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		enc, err := AppendEntry(nil, e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode is not canonical: %d vs %d bytes", len(enc), len(data))
		}
	})
}
