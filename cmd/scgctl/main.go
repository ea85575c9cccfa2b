// Command scgctl administers the persistent profile store that scgd
// serves from (-store): it pre-bakes profiles so daemons and fleet
// replicas warm-start, and audits store health.
//
//	scgctl warm -store DIR -sweep MS:8,star:9   # pre-bake a sweep
//	scgctl doctor -store DIR -json              # audit, machine-readable
//	scgctl -version
//
// warm enumerates every instance of the swept families (the same
// enumeration as netprops -sweep), runs the exact BFS profile for each on
// a bounded worker pool, and writes the scgstore/v1 entries: the profile
// only, which is all scgd reads. Keys whose entries already decode are
// skipped, so an interrupted warm is resumable by rerunning the same
// command; an entry that does not decode (corrupt, or in a retired format
// such as the old neighbor section) is quarantined and rebuilt, so one
// rerun heals the store. -force rebuilds every key anyway.
//
// doctor reads and checksum-verifies every entry, censuses schema
// revisions and quarantined files, reaps *.scgp.tmp.* partial writes left
// by killed processes, and totals sizes per family. A file in a retired
// format is reported as kind schema, not as corruption. Exit status is 0
// only for a healthy store, so CI can gate on it; -json emits the full
// scgstore-doctor/v1 report for dashboards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/version"
)

func main() {
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Usage = usage
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("scgctl"))
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "warm":
		fail(runWarm(args[1:]))
	case "doctor":
		fail(runDoctor(args[1:]))
	default:
		fmt.Fprintf(os.Stderr, "scgctl: unknown command %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: scgctl [-version] <command> [flags]

commands:
  warm    pre-bake exact profiles into a store directory
  doctor  audit store health (exit 0 iff healthy)

run 'scgctl <command> -h' for command flags
`)
}

// runWarm pre-bakes the swept instances into the store. Instances whose
// entries already decode are skipped (resumable); Load quarantines the
// rest, which are rebuilt. The BFS builds run concurrently on a bounded
// pool.
func runWarm(args []string) error {
	fs := flag.NewFlagSet("scgctl warm", flag.ExitOnError)
	var (
		dir     = fs.String("store", "", "store directory (required)")
		sweep   = fs.String("sweep", "", "comma-separated family:maxK sweep specs, e.g. MS:8,star:9 (required)")
		workers = fs.Int("workers", 0, "concurrent BFS builds (0 = GOMAXPROCS)")
		force   = fs.Bool("force", false, "rebuild entries that already decode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *sweep == "" {
		fs.Usage()
		return fmt.Errorf("warm needs -store and -sweep")
	}
	ins, err := topology.ParseSweepSpecs(*sweep)
	if err != nil {
		return err
	}
	for _, in := range ins {
		if in.K() > core.MaxExplicitK {
			return fmt.Errorf("warm: %v has k=%d beyond MaxExplicitK=%d (exact profiles are enumerable only up to k=%d)",
				in, in.K(), core.MaxExplicitK, core.MaxExplicitK)
		}
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}

	type outcome struct {
		in      topology.Instance
		skipped bool
		bytes   int64
	}
	results, err := pool.Map(len(ins), *workers, func(i int) (outcome, error) {
		in := ins[i]
		key := store.Key{Family: in.Family.String(), L: in.L, N: in.N}
		if !*force {
			if _, err := st.Load(key); err == nil {
				return outcome{in: in, skipped: true}, nil
			}
		}
		nw, err := topology.New(in.Family, in.L, in.N)
		if err != nil {
			return outcome{}, fmt.Errorf("warm %v: %w", in, err)
		}
		prof, err := nw.Graph().ExactProfile()
		nw.Graph().DropNeighborTable()
		if err != nil {
			return outcome{}, fmt.Errorf("warm %v: %w", in, err)
		}
		e := &store.Entry{Family: key.Family, L: key.L, N: key.N, K: in.K(), Profile: prof}
		if err := st.Put(key, e); err != nil {
			return outcome{}, err
		}
		fi, _ := os.Stat(st.EntryPath(key))
		var sz int64
		if fi != nil {
			sz = fi.Size()
		}
		return outcome{in: in, bytes: sz}, nil
	})
	if err != nil {
		return err
	}

	var baked, skipped int
	var bytes int64
	for _, r := range results {
		if r.skipped {
			skipped++
			fmt.Printf("warm %-20s skip (already stored)\n", r.in)
			continue
		}
		baked++
		bytes += r.bytes
		fmt.Printf("warm %-20s baked (%d bytes)\n", r.in, r.bytes)
	}
	fmt.Printf("warm: %d baked, %d skipped, %d bytes written to %s\n", baked, skipped, bytes, *dir)
	return nil
}

// runDoctor audits the store and exits non-zero on an unhealthy one.
func runDoctor(args []string) error {
	fs := flag.NewFlagSet("scgctl doctor", flag.ExitOnError)
	var (
		dir      = fs.String("store", "", "store directory (required)")
		jsonOut  = fs.Bool("json", false, "emit the scgstore-doctor/v1 report as JSON")
		jsonPath = fs.String("o", "", "write the JSON report to this file instead of stdout (implies -json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("doctor needs -store")
	}
	rep, err := store.Doctor(*dir)
	if err != nil {
		return err
	}
	if *jsonOut || *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if *jsonPath != "" {
			if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
				return err
			}
		} else if _, err := os.Stdout.Write(buf); err != nil {
			return err
		}
	} else {
		printDoctor(rep)
	}
	if !rep.Healthy {
		return fmt.Errorf("doctor: store %s is unhealthy (%d problems)", *dir, len(rep.Problems))
	}
	return nil
}

// printDoctor renders the human-readable audit.
func printDoctor(rep *store.DoctorReport) {
	fmt.Printf("store %s: %d entries, %d bytes\n", rep.Dir, rep.Entries, rep.TotalBytes)
	fams := make([]string, 0, len(rep.ByFamily))
	for f := range rep.ByFamily {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		fmt.Printf("  family %-16s %d entries\n", f, rep.ByFamily[f])
	}
	for rev, n := range rep.BySchemaRev {
		fmt.Printf("  schema rev %-12s %d files\n", rev, n)
	}
	for _, p := range rep.Problems {
		fmt.Printf("  PROBLEM %-8s %s: %s\n", p.Kind, p.Path, p.Detail)
	}
	for _, q := range rep.Quarantined {
		fmt.Printf("  quarantined %s\n", q)
	}
	for _, o := range rep.OrphansRemoved {
		fmt.Printf("  reaped orphan %s\n", o)
	}
	if rep.Healthy {
		fmt.Println("healthy")
	} else {
		fmt.Printf("UNHEALTHY: %d problems\n", len(rep.Problems))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgctl:", err)
		os.Exit(1)
	}
}
