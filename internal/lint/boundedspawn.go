package lint

// analyzerBoundedSpawn keeps parallelism behind one audited chokepoint. The
// covered packages — the measurement packages (internal/core, internal/sim,
// internal/figures) and the scgd engine (internal/server) — must not contain
// raw `go` statements: unbounded fan-out there has produced
// core-count-dependent memory spikes, and every concurrency invariant the
// repository proves (index-ordered gathering, exactly-once per-index state,
// deterministic error selection, bounded job admission) lives in
// internal/pool. Code that needs a goroutine routes it through pool.Map
// (gathered results), pool.Each (side effects over per-index state),
// pool.Gate (admission), pool.Runner (async jobs), or pool.Group (one
// goroutine per connection), where the spawn discipline is tested once; internal/pool itself — the chokepoint — is
// outside the analyzer's scope, as is everything else not listed. There
// are no exemptions.
var analyzerBoundedSpawn = &Analyzer{
	Name: "boundedspawn",
	Doc:  "forbid raw go statements in the spawn-audited packages; use internal/pool",
	Run:  runBoundedSpawn,
}

// boundedSpawnPackages are the import-path suffixes the analyzer covers.
// internal/fault and cmd/scgload joined the audited set once their fan-out
// moved onto pool primitives: load generators are exactly where an unbounded
// spawn turns a measurement into a self-inflicted overload. internal/store
// is audited from birth — the persistent store sits on the serving path and
// must stay spawn-free (all its concurrency is the caller's).
var boundedSpawnPackages = []string{"internal/core", "internal/sim", "internal/figures", "internal/server", "internal/telemetry", "internal/fault", "internal/store", "cmd/scgload"}

func runBoundedSpawn(p *Package, report Reporter) {
	if !pathHasSuffix(p.Path, boundedSpawnPackages...) {
		return
	}
	for _, g := range p.index().goStmts {
		report(g.node.Pos(),
			"raw go statement in a spawn-audited package bypasses the audited internal/pool chokepoint",
			"fan out with pool.Each(n, workers, fn) for per-index side effects, pool.Map for gathered results, pool.Runner for async jobs, or pool.Group for one goroutine per connection")
	}
}
