// Package store persists materialized topology profiles between scgd
// runs. Each (family, l, n) instance becomes one content-addressed file:
// the exact rank-indexed distance table and the distance histogram with
// its diameter/average-distance profile, encoded in the versioned
// scgstore/v1 binary format (format.go) and written atomically. That is
// all scgd reads back: the adjacency follows from the family's
// generators, so it is rebuilt, never stored. The serving cache consults
// the store before falling back to BFS, so a restarted daemon — or a
// fresh fleet replica shipped a pre-baked store directory — answers its
// first route query without recomputing k! distances.
//
// Everything a profile contains is a pure function of the key, so entries
// never need invalidation: a file is either present and valid, or it is
// rebuilt. Readers treat every structural problem (truncation, bit flips,
// bad magic, foreign schema revisions, the retired neighbor section,
// partial writes) as a cache miss: the offending file is quarantined by
// rename and the profile is rebuilt, never fatal.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Key identifies one storable instance. Family is the canonical family
// name (topology.Family.String()); L and N are the paper's cycle length
// and cycle count. The schema revision participates in the digest, so a
// format bump re-addresses the whole store rather than reinterpreting old
// bytes.
type Key struct {
	Family string
	L, N   int
}

// Hash returns the content address of k: the lowercase hex sha256 of
// "scgstore/v1|family|l|n".
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("scgstore/v%d|%s|%d|%d", SchemaRev, k.Family, k.L, k.N)))
	return hex.EncodeToString(sum[:])
}

// ErrNotFound reports a key with no entry file. Callers distinguish it
// from decode failures (which Load has already quarantined) only for
// accounting; both mean "build it".
var ErrNotFound = errors.New("store: entry not found")

// Stats counts store traffic since process start. All fields are updated
// atomically and may be read while the store is in use. A Load that finds
// no file counts a miss; one whose read fails for any other reason (a
// failing disk, a permission or a directory in the entry's place) counts
// a read error instead, so a sick store does not pass for a cold one.
type Stats struct {
	Hits         atomic.Int64
	Misses       atomic.Int64
	ReadErrors   atomic.Int64
	Writes       atomic.Int64
	WriteErrors  atomic.Int64
	Corrupt      atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// StatsSnapshot is a point-in-time copy of Stats, shaped for /statsz.
type StatsSnapshot struct {
	Dir          string `json:"dir"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	ReadErrors   int64  `json:"read_errors"`
	Writes       int64  `json:"writes"`
	WriteErrors  int64  `json:"write_errors"`
	Corrupt      int64  `json:"corrupt"`
	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
}

// Store is a content-addressed directory of scgstore/v1 entries, laid out
// as <dir>/<hh>/<hash>.scgp with hh the first two hex digits of the hash.
// All methods are safe for concurrent use; cross-process coordination
// relies on the atomic temp-file + rename write protocol, under which a
// reader sees either no file or a complete one.
type Store struct {
	dir   string
	stats Stats
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns the live traffic counters.
func (s *Store) Stats() *Stats { return &s.stats }

// Snapshot copies the counters for /statsz.
func (s *Store) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Dir:          s.dir,
		Hits:         s.stats.Hits.Load(),
		Misses:       s.stats.Misses.Load(),
		ReadErrors:   s.stats.ReadErrors.Load(),
		Writes:       s.stats.Writes.Load(),
		WriteErrors:  s.stats.WriteErrors.Load(),
		Corrupt:      s.stats.Corrupt.Load(),
		BytesRead:    s.stats.BytesRead.Load(),
		BytesWritten: s.stats.BytesWritten.Load(),
	}
}

// EntryPath returns the file path addressing k, whether or not it exists.
func (s *Store) EntryPath(k Key) string {
	h := k.Hash()
	return filepath.Join(s.dir, h[:2], h+".scgp")
}

// Load reads, validates, and decodes the entry addressed by k. A missing
// file counts a miss and returns ErrNotFound. A file that cannot be read
// counts a read error and returns that error, and is left in place (there
// is nothing to judge it by): the caller rebuilds as on a miss. A file
// that fails decoding — corrupt or written under a foreign schema revision
// — is quarantined (renamed to <name>.quarantined, where the doctor will
// find it), counted, and reported as ErrNotFound-wrapping so callers fall
// through to a rebuild. A decoded entry whose own metadata disagrees with
// k (a hash collision or a file copied into the wrong slot) is treated the
// same way.
func (s *Store) Load(k Key) (*Entry, error) {
	path := s.EntryPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.stats.Misses.Add(1)
			return nil, fmt.Errorf("%w: %s/%d/%d", ErrNotFound, k.Family, k.L, k.N)
		}
		s.stats.ReadErrors.Add(1)
		return nil, fmt.Errorf("store: read %s/%d/%d: %w", k.Family, k.L, k.N, err)
	}
	e, err := DecodeEntry(data)
	if err == nil && (e.Family != k.Family || e.L != k.L || e.N != k.N) {
		err = fmt.Errorf("%w: entry says %s/%d/%d, address says %s/%d/%d",
			ErrCorrupt, e.Family, e.L, e.N, k.Family, k.L, k.N)
	}
	if err != nil {
		s.stats.Corrupt.Add(1)
		s.stats.Misses.Add(1)
		s.quarantine(path)
		return nil, fmt.Errorf("%w: %s/%d/%d: %v", ErrNotFound, k.Family, k.L, k.N, err)
	}
	s.stats.Hits.Add(1)
	s.stats.BytesRead.Add(int64(len(data)))
	return e, nil
}

// quarantine moves a rejected file aside so it stops poisoning reads but
// stays available for post-mortem (scgctl doctor censuses and reaps these).
// Quarantining is best-effort: if the rename fails (e.g. the file vanished
// underneath us) the next Load simply retries.
func (s *Store) quarantine(path string) {
	_ = os.Rename(path, path+".quarantined")
}

// Put encodes e and writes it to the slot addressed by k, atomically:
// the bytes go to a temp file in the destination directory, are fsynced,
// and the temp file is renamed over the final name. A concurrent reader
// therefore sees either the old state or the complete new file, and a
// crash mid-write leaves only a *.scgp.tmp.* orphan (reaped by doctor).
// Put refuses a key that disagrees with the entry's own metadata.
func (s *Store) Put(k Key, e *Entry) error {
	if e == nil || e.Family != k.Family || e.L != k.L || e.N != k.N {
		s.stats.WriteErrors.Add(1)
		return fmt.Errorf("store: key %s/%d/%d does not address this entry", k.Family, k.L, k.N)
	}
	buf, err := AppendEntry(nil, e)
	if err != nil {
		s.stats.WriteErrors.Add(1)
		return err
	}
	path := s.EntryPath(k)
	if err := writeFileAtomic(path, buf); err != nil {
		s.stats.WriteErrors.Add(1)
		return fmt.Errorf("store: put %s/%d/%d: %w", k.Family, k.L, k.N, err)
	}
	s.stats.Writes.Add(1)
	s.stats.BytesWritten.Add(int64(len(buf)))
	return nil
}

// writeFileAtomic lands data at path via the temp + fsync + rename
// protocol. The temp file lives in the destination directory (rename must
// not cross filesystems) and is named <base>.scgp.tmp.<random> so the
// doctor can recognize abandoned ones.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp.*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// The temp file is being abandoned on these paths; close/remove
	// failures leave only an orphan the doctor reaps.
	cleanup := func() {
		_ = f.Close()
		_ = os.Remove(tmp)
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// Best-effort directory sync so the rename itself is durable; serving
	// correctness does not depend on it (a lost rename is just a miss).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// castagnoli is the CRC32-C table shared by encode, decode, and doctor.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the trailer function: CRC32-C over the entry body.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
