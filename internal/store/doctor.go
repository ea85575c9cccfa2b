package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DoctorEntry is one verified store file in a DoctorReport.
type DoctorEntry struct {
	Path   string `json:"path"`
	Family string `json:"family"`
	L      int    `json:"l"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	Bytes  int64  `json:"bytes"`
}

// DoctorProblem is one unhealthy file: a corrupt entry, a foreign schema
// revision or retired format (such as the neighbor section), or a name
// the store never writes.
type DoctorProblem struct {
	Path   string `json:"path"`
	Kind   string `json:"kind"` // "corrupt" | "schema" | "foreign"
	Detail string `json:"detail"`
}

// DoctorReport is the health audit of one store directory, shaped for the
// scgctl doctor -json gate in CI. Slices are always non-nil so the JSON
// encodes [] rather than null.
type DoctorReport struct {
	Schema string `json:"schema"` // "scgstore-doctor/v1"
	Dir    string `json:"dir"`
	// Healthy is the CI gate: true iff no corrupt, foreign-schema, or
	// misplaced files remain (quarantined leftovers and reaped temp
	// orphans do not count against health — they are the protocol
	// working as designed).
	Healthy bool `json:"healthy"`

	Entries    int   `json:"entries"`
	TotalBytes int64 `json:"total_bytes"`

	// ByFamily maps canonical family name to entry count.
	ByFamily map[string]int `json:"by_family"`
	// BySchemaRev censuses the schema revision of every parseable header,
	// healthy or not (key is the decimal revision).
	BySchemaRev map[string]int `json:"by_schema_rev"`

	Verified    []DoctorEntry   `json:"verified"`
	Problems    []DoctorProblem `json:"problems"`
	Quarantined []string        `json:"quarantined"`
	// OrphansRemoved lists *.scgp.tmp.* partial writes reaped by this run.
	OrphansRemoved []string `json:"orphans_removed"`
}

// Doctor audits the store directory at dir: every *.scgp file is read and
// fully decoded (checksum verified), a directory named like an entry is
// reported without being walked, abandoned temp files from killed
// writers are removed, already-quarantined files are censused, and size
// accounting is totalled. Doctor repairs nothing beyond reaping temp
// orphans — corrupt files are reported, not deleted, so an operator can
// inspect them (a running daemon quarantines them on first touch anyway).
func Doctor(dir string) (*DoctorReport, error) {
	rep := &DoctorReport{
		Schema:         "scgstore-doctor/v1",
		Dir:            dir,
		ByFamily:       map[string]int{},
		BySchemaRev:    map[string]int{},
		Verified:       []DoctorEntry{},
		Problems:       []DoctorProblem{},
		Quarantined:    []string{},
		OrphansRemoved: []string{},
	}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			rel = path
		}
		name := d.Name()
		if d.IsDir() {
			if path != dir && strings.HasSuffix(name, ".scgp") {
				// Load reads an entry's path as a file, so a directory there
				// is a read error on every probe of its key.
				rep.Problems = append(rep.Problems, DoctorProblem{
					Path: rel, Kind: "corrupt",
					Detail: "a directory in an entry's place; the store cannot read or replace it",
				})
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.Contains(name, ".scgp.tmp."):
			// A temp file is live only while its writer is mid-Put; any
			// found by an offline audit are crash leftovers.
			if rmErr := os.Remove(path); rmErr == nil {
				rep.OrphansRemoved = append(rep.OrphansRemoved, rel)
			}
		case strings.HasSuffix(name, ".quarantined"):
			rep.Quarantined = append(rep.Quarantined, rel)
		case strings.HasSuffix(name, ".scgp"):
			doctorFile(rep, dir, path, rel)
		default:
			rep.Problems = append(rep.Problems, DoctorProblem{
				Path: rel, Kind: "foreign",
				Detail: "not a store artifact; the store only writes *.scgp files",
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: doctor %s: %w", dir, err)
	}
	sort.Slice(rep.Verified, func(i, j int) bool { return rep.Verified[i].Path < rep.Verified[j].Path })
	sort.Slice(rep.Problems, func(i, j int) bool { return rep.Problems[i].Path < rep.Problems[j].Path })
	sort.Strings(rep.Quarantined)
	sort.Strings(rep.OrphansRemoved)
	rep.Healthy = len(rep.Problems) == 0
	return rep, nil
}

// doctorFile verifies one entry file and records the outcome.
func doctorFile(rep *DoctorReport, dir, path, rel string) {
	data, err := os.ReadFile(path)
	if err != nil {
		rep.Problems = append(rep.Problems, DoctorProblem{Path: rel, Kind: "corrupt", Detail: err.Error()})
		return
	}
	// Census the claimed schema rev of anything that at least carries the
	// magic, so an operator can see how much of the store a format bump
	// stranded.
	if len(data) >= 12 && string(data[:8]) == Magic {
		rev := binary.LittleEndian.Uint32(data[8:])
		rep.BySchemaRev[fmt.Sprintf("%d", rev)]++
	}
	e, err := DecodeEntry(data)
	if err != nil {
		kind := "corrupt"
		if errors.Is(err, ErrSchema) {
			kind = "schema"
		}
		rep.Problems = append(rep.Problems, DoctorProblem{Path: rel, Kind: kind, Detail: err.Error()})
		return
	}
	// The file must live in the slot its content addresses.
	want := Key{Family: e.Family, L: e.L, N: e.N}.Hash()
	if wantRel := filepath.Join(want[:2], want+".scgp"); rel != wantRel && filepath.ToSlash(rel) != filepath.ToSlash(wantRel) {
		rep.Problems = append(rep.Problems, DoctorProblem{
			Path: rel, Kind: "foreign",
			Detail: fmt.Sprintf("content %s/%d/%d addresses %s", e.Family, e.L, e.N, wantRel),
		})
		return
	}
	rep.Entries++
	rep.TotalBytes += int64(len(data))
	rep.ByFamily[e.Family]++
	rep.Verified = append(rep.Verified, DoctorEntry{
		Path: rel, Family: e.Family, L: e.L, N: e.N, K: e.K, Bytes: int64(len(data)),
	})
}
