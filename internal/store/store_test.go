package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/topology"
)

// buildEntry materializes one small instance and its exact profile for
// store tests.
func buildEntry(t *testing.T, fam topology.Family, l, n int) (*Entry, Key) {
	t.Helper()
	nw, err := topology.New(fam, l, n)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := nw.Graph().ExactProfile()
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Family: fam.String(), L: l, N: n}
	return &Entry{Family: key.Family, L: l, N: n, K: nw.K(), Profile: prof}, key
}

func TestRoundTrip(t *testing.T) {
	e, key := buildEntry(t, topology.MS, 2, 2)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.EntryPath(key)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty store has a file for the key: %v", err)
	}
	if err := st.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.EntryPath(key)); err != nil {
		t.Fatalf("store does not see its own write: %v", err)
	}
	got, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Family != e.Family || got.L != e.L || got.N != e.N || got.K != e.K {
		t.Fatalf("identity changed: %+v vs %+v", got, e)
	}
	p, q := e.Profile, got.Profile
	if q.Source != p.Source || q.Reachable != p.Reachable || q.Eccentricity != p.Eccentricity || q.Mean != p.Mean {
		t.Fatalf("profile scalars changed: %+v vs %+v", q, p)
	}
	if len(q.Histogram) != len(p.Histogram) {
		t.Fatalf("histogram length %d vs %d", len(q.Histogram), len(p.Histogram))
	}
	for d := range p.Histogram {
		if q.Histogram[d] != p.Histogram[d] {
			t.Fatalf("histogram[%d] = %d, want %d", d, q.Histogram[d], p.Histogram[d])
		}
	}
	if q.Dist.Len() != p.Dist.Len() {
		t.Fatalf("dist length %d vs %d", q.Dist.Len(), p.Dist.Len())
	}
	for r := int64(0); r < int64(p.Dist.Len()); r++ {
		if q.Dist.At(r) != p.Dist.At(r) {
			t.Fatalf("dist[%d] = %d, want %d", r, q.Dist.At(r), p.Dist.At(r))
		}
	}
	s := st.Snapshot()
	if s.Writes != 1 || s.Hits != 1 || s.Corrupt != 0 {
		t.Fatalf("counters %+v", s)
	}
	if s.BytesWritten == 0 || s.BytesRead != s.BytesWritten {
		t.Fatalf("byte counters %+v", s)
	}
}

func TestLoadMissingCountsMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Load(Key{Family: "star", L: 1, N: 4})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if s := st.Snapshot(); s.Misses != 1 || s.Corrupt != 0 {
		t.Fatalf("counters %+v", s)
	}
}

// TestLoadReadErrorIsNotAMiss puts a directory where an entry's file
// belongs, which fails the read even for root (a chmod would not): Load
// must count a read error, not a miss or corruption, leave the path alone,
// and return an error the caller rebuilds on.
func TestLoadReadErrorIsNotAMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Family: "star", L: 1, N: 4}
	if err := os.MkdirAll(st.EntryPath(k), 0o755); err != nil {
		t.Fatal(err)
	}
	e, err := st.Load(k)
	if err == nil || e != nil {
		t.Fatalf("Load over a directory = %v, %v; want an error", e, err)
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read error %v reported as not found", err)
	}
	if s := st.Snapshot(); s.ReadErrors != 1 || s.Misses != 0 || s.Corrupt != 0 || s.Hits != 0 {
		t.Fatalf("counters %+v, want one read error and nothing else", s)
	}
	if fi, err := os.Stat(st.EntryPath(k)); err != nil || !fi.IsDir() {
		t.Fatalf("the unreadable path was moved: %v", err)
	}
}

// TestDoctorReportsDirectoryEntry: the directory Load cannot read (above)
// makes the store unhealthy in the doctor's audit too, reported once at
// its own path and not walked, while the valid entry beside it still
// verifies.
func TestDoctorReportsDirectoryEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, good := buildEntry(t, topology.Star, 1, 4)
	if err := st.Put(good, e); err != nil {
		t.Fatal(err)
	}
	bad := Key{Family: "star", L: 1, N: 3}
	if err := os.MkdirAll(filepath.Join(st.EntryPath(bad), "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.EntryPath(bad), "inside", "x.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Doctor(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, st.EntryPath(bad))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || rep.Entries != 1 || len(rep.Problems) != 1 {
		t.Fatalf("audit %+v; want one entry and one problem, unhealthy", rep)
	}
	if p := rep.Problems[0]; p.Path != rel || p.Kind != "corrupt" {
		t.Fatalf("problem %+v; want the directory %s reported as corrupt", p, rel)
	}
}

// corruptions are the five damage shapes of the acceptance criteria; each
// mutates a valid on-disk entry (or, for partial-write, replaces it with a
// torn one).
var corruptions = []struct {
	name   string
	mutate func(data []byte) []byte
}{
	{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
	{"flipped-byte", func(d []byte) []byte {
		out := bytes.Clone(d)
		out[len(out)/2] ^= 0x40
		return out
	}},
	{"wrong-magic", func(d []byte) []byte {
		out := bytes.Clone(d)
		copy(out, "notstore")
		return out
	}},
	{"future-schema-rev", func(d []byte) []byte {
		// A well-formed file from a future format: bump the rev and
		// recompute the trailer so only the revision check can reject it.
		out := bytes.Clone(d)
		binary.LittleEndian.PutUint32(out[8:], SchemaRev+7)
		binary.LittleEndian.PutUint32(out[len(out)-4:], checksum(out[:len(out)-4]))
		return out
	}},
	{"partial-write", func(d []byte) []byte {
		// A torn write: the header survived, the tail never landed.
		return d[:headerLen+3]
	}},
}

// TestCorruptionShapesQuarantineAndRebuild damages a stored entry in each
// shape and requires the same recovery story every time: Load reports a
// miss (never a crash), the damaged file is quarantined, and a rebuild
// write + reload round-trips.
func TestCorruptionShapesQuarantineAndRebuild(t *testing.T) {
	e, key := buildEntry(t, topology.Star, 1, 4)
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(key, e); err != nil {
				t.Fatal(err)
			}
			path := st.EntryPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			_, err = st.Load(key)
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Load on %s file = %v, want ErrNotFound", tc.name, err)
			}
			if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
				t.Fatalf("damaged file still in place after Load")
			}
			if _, statErr := os.Stat(path + ".quarantined"); statErr != nil {
				t.Fatalf("no quarantined copy: %v", statErr)
			}
			if s := st.Snapshot(); s.Corrupt != 1 {
				t.Fatalf("corrupt counter %+v", s)
			}

			// Rebuild: the slot is free again and round-trips.
			if err := st.Put(key, e); err != nil {
				t.Fatalf("rebuild Put: %v", err)
			}
			got, err := st.Load(key)
			if err != nil {
				t.Fatalf("rebuild Load: %v", err)
			}
			if got.Profile.Eccentricity != e.Profile.Eccentricity {
				t.Fatalf("rebuild diameter %d, want %d", got.Profile.Eccentricity, e.Profile.Eccentricity)
			}
		})
	}
}

// TestSchemaRevErrorIsDistinguishable pins that a future-rev file decodes
// to ErrSchema (not ErrCorrupt): the doctor censuses the two differently.
func TestSchemaRevErrorIsDistinguishable(t *testing.T) {
	e, _ := buildEntry(t, topology.Star, 1, 3)
	data, err := AppendEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], SchemaRev+1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], checksum(data[:len(data)-4]))
	if _, err := DecodeEntry(data); !errors.Is(err, ErrSchema) {
		t.Fatalf("err = %v, want ErrSchema", err)
	}
}

// TestNeighborSectionIsRetired reads the two committed star(1,3) files
// of the neighbor-section era. The profile-only one decodes and
// re-encodes byte for byte. The one with the neighbor section decodes to
// ErrSchema, never ErrCorrupt: in its slot, the doctor reports it as kind
// schema, and Load quarantines it and counts it, so its key is rebuilt.
func TestNeighborSectionIsRetired(t *testing.T) {
	old, err := os.ReadFile(profileOnlyFile)
	if err != nil {
		t.Fatal(err)
	}
	e, err := DecodeEntry(old)
	if err != nil {
		t.Fatalf("profile-only file: %v", err)
	}
	if enc, err := AppendEntry(nil, e); err != nil || !bytes.Equal(enc, old) {
		t.Fatalf("profile-only file re-encodes to %d bytes (err %v), want its own %d", len(enc), err, len(old))
	}

	data, err := os.ReadFile(neighborFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(data); !errors.Is(err, ErrSchema) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("neighbor-section file: err = %v, want ErrSchema only", err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Family: e.Family, L: e.L, N: e.N}
	path := st.EntryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Doctor(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || rep.Entries != 0 || len(rep.Problems) != 1 || rep.Problems[0].Kind != "schema" || rep.BySchemaRev["1"] != 1 {
		t.Fatalf("audit %+v; want the one file reported as kind schema", rep)
	}
	if _, err := st.Load(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("neighbor-section file not quarantined: %v", err)
	}
	if s := st.Snapshot(); s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("counters %+v, want one corrupt miss", s)
	}
}

// TestLoadRejectsMisplacedEntry copies a valid file into another key's
// slot; the decoded metadata disagrees with the address, so Load must
// quarantine it instead of serving the wrong instance.
func TestLoadRejectsMisplacedEntry(t *testing.T) {
	e, key := buildEntry(t, topology.Star, 1, 4)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, e); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	other := Key{Family: "star", L: 1, N: 5}
	wrong := st.EntryPath(other)
	if err := os.MkdirAll(filepath.Dir(wrong), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrong, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(other); !errors.Is(err, ErrNotFound) {
		t.Fatalf("misplaced Load = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(wrong + ".quarantined"); err != nil {
		t.Fatalf("misplaced file not quarantined: %v", err)
	}
	// The original slot is untouched.
	if _, err := st.Load(key); err != nil {
		t.Fatalf("original entry broken: %v", err)
	}
}

func TestPutRejectsMismatchedKey(t *testing.T) {
	e, _ := buildEntry(t, topology.Star, 1, 4)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Key{Family: "star", L: 1, N: 6}, e); err == nil {
		t.Fatal("Put accepted a key that does not address the entry")
	}
	if s := st.Snapshot(); s.WriteErrors != 1 {
		t.Fatalf("counters %+v", s)
	}
}

func TestKeyHashShardsLayout(t *testing.T) {
	st, err := Open("/tmp/unused-store")
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Family: "MS", L: 2, N: 3}
	h := k.Hash()
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("hash %q is not lowercase hex sha256", h)
	}
	want := filepath.Join("/tmp/unused-store", h[:2], h+".scgp")
	if got := st.EntryPath(k); got != want {
		t.Fatalf("EntryPath = %q, want %q", got, want)
	}
	if (Key{Family: "MS", L: 3, N: 2}).Hash() == h {
		t.Fatal("distinct keys share a hash input")
	}
}

// TestDoctorAudit exercises every census the doctor performs: valid
// entries, a corrupt file, a foreign file, a quarantined leftover, and a
// reapable temp orphan.
func TestDoctorAudit(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, k1 := buildEntry(t, topology.Star, 1, 4)
	e2, k2 := buildEntry(t, topology.MS, 2, 2)
	if err := st.Put(k1, e1); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(k2, e2); err != nil {
		t.Fatal(err)
	}

	// Healthy first.
	rep, err := Doctor(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || rep.Entries != 2 {
		t.Fatalf("healthy audit %+v", rep)
	}
	if rep.ByFamily["star"] != 1 || rep.ByFamily["MS"] != 1 || rep.BySchemaRev["1"] != 2 {
		t.Fatalf("census %+v", rep)
	}
	if rep.TotalBytes <= 0 || len(rep.Verified) != 2 {
		t.Fatalf("accounting %+v", rep)
	}

	// Now damage the directory in every way the doctor reports.
	corruptPath := st.EntryPath(k1)
	if err := os.WriteFile(corruptPath, []byte("scgstore garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "ab", "deadbeef.scgp.tmp.123")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	quarantined := filepath.Join(dir, "cd", "feedface.scgp.quarantined")
	if err := os.MkdirAll(filepath.Dir(quarantined), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(quarantined, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = Doctor(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatalf("audit of damaged store claims healthy: %+v", rep)
	}
	if rep.Entries != 1 {
		t.Fatalf("entries = %d, want 1 surviving", rep.Entries)
	}
	kinds := map[string]int{}
	for _, p := range rep.Problems {
		kinds[p.Kind]++
	}
	if kinds["corrupt"] != 1 || kinds["foreign"] != 1 {
		t.Fatalf("problem kinds %v", kinds)
	}
	if len(rep.Quarantined) != 1 || len(rep.OrphansRemoved) != 1 {
		t.Fatalf("census %+v", rep)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("doctor left the temp orphan behind")
	}
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatal("doctor must not delete quarantined files")
	}
}

// TestConcurrentLoadWhileWriting hammers one key with rewrites while
// readers load it, under -race: the atomic temp+rename protocol must mean
// every reader sees either a complete valid entry or a (transient) miss,
// never torn bytes.
func TestConcurrentLoadWhileWriting(t *testing.T) {
	e, key := buildEntry(t, topology.Star, 1, 4)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 6, 40
	pool.Each(writers+readers, writers+readers, func(i int) {
		if i < writers {
			for r := 0; r < rounds; r++ {
				if err := st.Put(key, e); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
			return
		}
		for r := 0; r < rounds; r++ {
			got, err := st.Load(key)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue
				}
				t.Errorf("Load: %v", err)
				return
			}
			if got.Profile.Eccentricity != e.Profile.Eccentricity {
				t.Errorf("torn read: diameter %d, want %d", got.Profile.Eccentricity, e.Profile.Eccentricity)
				return
			}
		}
	})
	if n := st.Stats().Corrupt.Load(); n != 0 {
		t.Fatalf("%d entries quarantined during concurrent rewrite; atomic rename should prevent any", n)
	}
}
