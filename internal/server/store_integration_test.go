package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/topology"
)

// newStoreServer builds a server over a store directory, optionally
// capturing the slow log (zero threshold = every request is traced).
func newStoreServer(t *testing.T, dir string, slow *strings.Builder) *Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		CacheBytes:     64 << 20,
		MaxInflight:    64,
		ProfileWorkers: 1,
		RequestTimeout: 30 * time.Second,
		Store:          st,
	}
	if slow != nil {
		cfg.SlowLog = slow
	}
	return New(cfg)
}

// buildProfileViaHTTP submits MS(2,2)'s profile and fails the test unless
// the submit answers 200 done.
func buildProfileViaHTTP(t *testing.T, s *Server) {
	t.Helper()
	var resp ProfileResponse
	if code := do(t, s, http.MethodGet, "/v1/profile?family=MS&l=2&n=2", "", &resp); code != http.StatusOK || resp.Status != string(JobDone) {
		t.Fatalf("profile submit = %d %+v, want 200 done", code, resp)
	}
}

// storeSlowPhases returns the phase names of the first slow-log record for
// the given endpoint.
func storeSlowPhases(t *testing.T, slow *strings.Builder, endpoint string) []string {
	t.Helper()
	names, _ := storeSlowRecord(t, slow, endpoint)
	return names
}

// storeSlowRecord returns the phase names and the request ID of the first
// slow-log record for the given endpoint.
func storeSlowRecord(t *testing.T, slow *strings.Builder, endpoint string) ([]string, string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		if line == "" {
			continue
		}
		var rec SlowRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		if rec.Endpoint != endpoint {
			continue
		}
		names := make([]string, 0, len(rec.Phases))
		for _, p := range rec.Phases {
			names = append(names, p.Name)
		}
		return names, rec.ReqID
	}
	t.Fatalf("no slow-log record for %s in %q", endpoint, slow.String())
	return nil, ""
}

// TestWarmStartServesWithoutBFS is the acceptance pin for the persistent
// store: build a profile through one server, then restart (a brand-new
// server over the same directory) and require the very first /v1/route to
// carry the exact distance with a store-load phase and no build phase in
// its trace — the BFS never ran.
func TestWarmStartServesWithoutBFS(t *testing.T) {
	dir := t.TempDir()

	first := newStoreServer(t, dir, nil)
	buildProfileViaHTTP(t, first)
	first.Close()
	if w := first.cache.store.Stats().Writes.Load(); w == 0 {
		t.Fatal("first server persisted nothing")
	}

	var slow strings.Builder
	second := newStoreServer(t, dir, &slow)
	defer second.Close()

	var route RouteResponse
	if code := do(t, second, http.MethodGet, "/v1/route?family=MS&l=2&n=2&src=21435&dst=53412", "", &route); code != http.StatusOK {
		t.Fatalf("warm route = %d", code)
	}
	if route.ExactDistance == nil {
		t.Fatal("first request after restart has no exact distance: store was not consulted")
	}

	phases := storeSlowPhases(t, &slow, "/v1/route")
	var sawLoad bool
	for _, name := range phases {
		switch name {
		case "store-load":
			sawLoad = true
		case "build-topology", "build-profile":
			t.Fatalf("warm-start trace ran %s (phases %v)", name, phases)
		}
	}
	if !sawLoad {
		t.Fatalf("no store-load phase in warm-start trace (phases %v)", phases)
	}

	snap := second.cache.store.Snapshot()
	if snap.Hits == 0 || snap.Misses != 0 || snap.Corrupt != 0 {
		t.Fatalf("warm-start counters %+v", snap)
	}
}

// TestStoreWritePhaseOnColdBuild pins the other half of the trace
// contract: a cold profile build against an empty store shows build-profile
// in the job's record, and store-write in the record of its write-back,
// which runs after the job is done under the same request ID.
func TestStoreWritePhaseOnColdBuild(t *testing.T) {
	var slow strings.Builder
	s := newStoreServer(t, t.TempDir(), &slow)
	defer s.Close()
	buildProfileViaHTTP(t, s)
	// Close drains the write-back; the slow log is complete after it.
	s.Close()

	phases, jobReq := storeSlowRecord(t, &slow, jobEndpoint)
	if !slices.Contains(phases, "build-profile") || slices.Contains(phases, "store-write") {
		t.Fatalf("cold build phases %v: want build-profile and no store-write", phases)
	}
	phases, writeReq := storeSlowRecord(t, &slow, writeBackEndpoint)
	if !slices.Contains(phases, "store-write") {
		t.Fatalf("write-back phases %v: want store-write", phases)
	}
	if writeReq != jobReq || writeReq == "" {
		t.Fatalf("write-back request ID %q, job's %q: want the submitter's on both", writeReq, jobReq)
	}
	if w := s.cache.store.Stats().Writes.Load(); w == 0 {
		t.Fatal("cold build wrote nothing")
	}
}

// TestCorruptStoreRebuildsOverHTTP damages the persisted entry in each
// acceptance shape and restarts: the daemon must quarantine, rebuild via
// BFS, rewrite the entry, and keep serving — corruption is never fatal.
func TestCorruptStoreRebuildsOverHTTP(t *testing.T) {
	shapes := []struct {
		name   string
		mutate func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"flipped-byte", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }},
		{"wrong-magic", func(d []byte) []byte { copy(d, "notstore"); return d }},
		{"future-schema-rev", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], store.SchemaRev+9)
			return d
		}},
		{"partial-write", func(d []byte) []byte { return d[:13] }},
	}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first := newStoreServer(t, dir, nil)
			buildProfileViaHTTP(t, first)
			first.Close()

			sk := store.Key{Family: "MS", L: 2, N: 2}
			path := first.cache.store.EntryPath(sk)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			second := newStoreServer(t, dir, nil)
			defer second.Close()
			buildProfileViaHTTP(t, second)

			var route RouteResponse
			if code := do(t, second, http.MethodGet, "/v1/route?family=MS&l=2&n=2&src=21435&dst=53412", "", &route); code != http.StatusOK {
				t.Fatalf("route after rebuild = %d", code)
			}
			if route.ExactDistance == nil {
				t.Fatal("rebuilt profile not serving exact distances")
			}

			// The write-back runs after the job is done; Close drains it.
			second.Close()
			var stats StatsResponse
			if code := do(t, second, http.MethodGet, "/statsz", "", &stats); code != http.StatusOK {
				t.Fatalf("/statsz = %d", code)
			}
			if stats.Store == nil {
				t.Fatal("/statsz has no store block despite -store")
			}
			if stats.Store.Corrupt != 1 {
				t.Fatalf("store corrupt counter = %d, want 1", stats.Store.Corrupt)
			}
			if stats.Store.Writes == 0 {
				t.Fatal("rebuild did not write the entry back")
			}
			// The damaged file was quarantined and the slot rebuilt.
			if _, err := os.Stat(path + ".quarantined"); err != nil {
				t.Fatalf("no quarantined file: %v", err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("slot not rebuilt on disk: %v", err)
			}
		})
	}
}

// withNeighborSection rewrites a profile-only MS(2,2) entry into the
// retired layout that `scgctl warm -neighbors` wrote: flag bit 1, the
// section's length in the header, then the degree and the k!·deg
// row-major neighbor ranks after the distances, under a fresh checksum.
func withNeighborSection(t *testing.T, data []byte) []byte {
	t.Helper()
	nw, err := topology.NewMS(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := nw.Graph().EnsureNeighborTable(1)
	if err != nil {
		t.Fatal(err)
	}
	out := bytes.Clone(data[:len(data)-4])
	binary.LittleEndian.PutUint32(out[12:], binary.LittleEndian.Uint32(out[12:])|1<<1)
	binary.LittleEndian.PutUint64(out[32:], uint64(4+4*nw.Nodes()*int64(tbl.Degree())))
	out = binary.LittleEndian.AppendUint32(out, uint32(tbl.Degree()))
	for r := int64(0); r < nw.Nodes(); r++ {
		for j := 0; j < tbl.Degree(); j++ {
			out = binary.LittleEndian.AppendUint32(out, uint32(tbl.At(r, j)))
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// TestNeighborSectionRebuildsOnce puts an entry with the retired neighbor
// section in MS(2,2)'s slot. The first read of the key quarantines it and
// counts it corrupt; the key answers after one profile build, written
// back profile-only; and a restarted server loads that file with no build.
func TestNeighborSectionRebuildsOnce(t *testing.T) {
	dir := t.TempDir()
	first := newStoreServer(t, dir, nil)
	buildProfileViaHTTP(t, first)
	first.Close()
	path := first.cache.store.EntryPath(store.Key{Family: "MS", L: 2, N: 2})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withNeighborSection(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	var slow strings.Builder
	second := newStoreServer(t, dir, &slow)
	buildProfileViaHTTP(t, second)
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("neighbor-section file not quarantined on the first read: %v", err)
	}
	var route RouteResponse
	if code := do(t, second, http.MethodGet, "/v1/route?family=MS&l=2&n=2&src=21435&dst=53412", "", &route); code != http.StatusOK || route.ExactDistance == nil {
		t.Fatalf("route after rebuild = %d, exact distance %v", code, route.ExactDistance)
	}
	second.Close() // drains the write-back
	if n := strings.Count(slow.String(), `"name":"build-profile"`); n != 1 {
		t.Fatalf("%d build-profile spans, want exactly one", n)
	}
	body := strings.Join(scrapeMetricsz(t, second), "\n")
	if !strings.Contains(body, "\nscgd_store_corrupt_total 1\n") || !strings.Contains(body, "\nscgd_store_writes_total 1\n") {
		t.Fatalf("/metricsz store block:\n%s", body)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(rewritten, data) {
		t.Fatalf("written-back entry is %d bytes (err %v), want the profile-only %d", len(rewritten), err, len(data))
	}

	slow.Reset()
	third := newStoreServer(t, dir, &slow)
	defer third.Close()
	if code := do(t, third, http.MethodGet, "/v1/route?family=MS&l=2&n=2&src=21435&dst=53412", "", &route); code != http.StatusOK || route.ExactDistance == nil {
		t.Fatalf("route after restart = %d, exact distance %v", code, route.ExactDistance)
	}
	phases := storeSlowPhases(t, &slow, "/v1/route")
	if !slices.Contains(phases, "store-load") || slices.Contains(phases, "build-profile") {
		t.Fatalf("restarted route phases %v: want store-load and no build-profile", phases)
	}
}

// TestStoreReadErrorRebuildsOverHTTP puts a directory where MS(2,2)'s
// entry belongs, so every read of it fails (even as root, where a chmod
// would not): the daemon must answer as on a cold store, by building, and
// count its one failed read as a read error, neither a miss nor
// corruption, on /statsz and /metricsz, without quarantining the path.
func TestStoreReadErrorRebuildsOverHTTP(t *testing.T) {
	s := newStoreServer(t, t.TempDir(), nil)
	defer s.Close()
	path := s.cache.store.EntryPath(store.Key{Family: "MS", L: 2, N: 2})
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	buildProfileViaHTTP(t, s)
	var route RouteResponse
	if code := do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=2&src=21435&dst=53412", "", &route); code != http.StatusOK {
		t.Fatalf("route = %d", code)
	}
	if route.ExactDistance == nil {
		t.Fatal("built profile not serving exact distances")
	}
	s.Close() // drains the write-back, which cannot replace a directory

	var stats StatsResponse
	if code := do(t, s, http.MethodGet, "/statsz", "", &stats); code != http.StatusOK || stats.Store == nil {
		t.Fatalf("/statsz = %d, store block %v", code, stats.Store)
	}
	// The cold network reads the store once; the profile build of the same
	// request does not read it again.
	if st := stats.Store; st.ReadErrors != 1 || st.Misses != 0 || st.Corrupt != 0 || st.Hits != 0 {
		t.Fatalf("store counters %+v, want one read error and no miss, hit or corruption", *st)
	}
	body := strings.Join(scrapeMetricsz(t, s), "\n")
	if !strings.Contains(body, "\nscgd_store_read_errors_total 1\n") || !strings.Contains(body, "\nscgd_store_misses_total 0\n") {
		t.Fatalf("/metricsz store block:\n%s", body)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("the unreadable entry path was moved: %v", err)
	}
	if _, err := os.Stat(path + ".quarantined"); err == nil {
		t.Fatal("an unreadable entry was quarantined")
	}
}

// TestMetricszExportsStoreCounters checks the store counters ride the
// Prometheus surface when (and only when) a store is configured.
func TestMetricszExportsStoreCounters(t *testing.T) {
	dir := t.TempDir()
	s := newStoreServer(t, dir, nil)
	defer s.Close()
	buildProfileViaHTTP(t, s)
	// The write-back runs after the job is done; Close drains it.
	s.Close()

	body := strings.Join(scrapeMetricsz(t, s), "\n")
	for _, name := range []string{
		"scgd_store_hits_total", "scgd_store_misses_total", "scgd_store_read_errors_total", "scgd_store_writes_total",
		"scgd_store_write_errors_total", "scgd_store_corrupt_total",
		"scgd_store_bytes_read_total", "scgd_store_bytes_written_total",
		"scgd_store_writeback_skipped_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metricsz missing %s", name)
		}
	}
	if !strings.Contains(body, "scgd_store_writes_total 1") {
		t.Fatalf("writes counter not incremented:\n%s", body)
	}
	// One cold profile on an empty store reads the store once.
	if !strings.Contains(body, "\nscgd_store_misses_total 1\n") {
		t.Fatalf("a cold profile on an empty store counts other than one miss:\n%s", body)
	}

	// Without a store the counters must not appear at all.
	bare := newTestServer()
	defer bare.Close()
	if strings.Contains(strings.Join(scrapeMetricsz(t, bare), "\n"), "scgd_store_") {
		t.Fatal("store counters exported without a configured store")
	}
}
