package lint

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// lockorder: the module-wide lock-acquisition graph must be acyclic, and
// no lock may be held across a blocking operation.
//
// The graph's nodes are canonical lock identities (lockfacts.go); an edge
// A -> B means some execution path acquires B while holding A — directly,
// or by calling (transitively) into a function that acquires B. Any cycle
// is a potential deadlock: two goroutines entering the cycle from
// different edges can each hold the lock the other needs. Acquiring a
// lock that is already held is the one-node cycle (sync mutexes are not
// reentrant).
//
// Held-across-blocking findings use the same facts: a channel operation,
// select without default, pool barrier/submit, sleep, or file/network/
// stream I/O executed under a lock — directly or via a callee that may
// block — serializes every contender behind an unbounded wait.
// //scglint:lockheld <reason> sanctions an individual site, audited like
// coldpath: malformed or unused directives are findings themselves.
var analyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the module lock-acquisition graph must be acyclic and no lock may be held across a blocking operation (lockheld sanctions audited cases)",
	Run: func(p *Package, report Reporter) {
		replayFactDiags(p, "lockorder", report)
	},
	needsFacts: true,
}

// lockEdge is one evidence site of a lock-graph edge from -> to.
type lockEdge struct {
	from, to string
	pkgPath  string
	pos      sitePos
	// via names the callee whose (transitive) acquisition creates the
	// edge; empty for a direct acquisition.
	via string
	// sanction points at the lockheld annotation covering the site.
	pf          *pkgFacts
	sanctionAnn int
}

// runLockOrder builds the acquisition graph from the extracted lock facts,
// reports cyclic ordering, and reports blocking operations under held
// locks. Sanctioned sites mark their lockheld directive used instead.
func runLockOrder(m *Module, mf *moduleFacts) {
	acq := lockAcqSummaries(mf)
	blockVia := mayBlockSummaries(mf)

	var edges []lockEdge
	for _, pkgPath := range sortedPkgPaths(mf) {
		pf := mf.byPath[pkgPath]
		for _, id := range pf.FuncIDs {
			ff := pf.Funcs[id]
			for _, la := range ff.LockAcquires {
				if la.Async {
					continue
				}
				if len(la.Held) == 0 {
					continue
				}
				for _, h := range la.Held {
					edges = append(edges, lockEdge{
						from: h, to: la.Lock, pkgPath: pkgPath, pos: la.Pos,
						pf: pf, sanctionAnn: la.SanctionAnn,
					})
				}
			}
			for _, op := range ff.HeldOps {
				if op.Async || len(op.Held) == 0 {
					continue
				}
				switch op.Kind {
				case "block":
					reportHeldBlock(mf, pf, pkgPath, op, op.What)
				case "call":
					calleeID := funcID(op.CalleePkg, op.CalleeName)
					for _, to := range acq[calleeID] {
						for _, h := range op.Held {
							edges = append(edges, lockEdge{
								from: h, to: to, pkgPath: pkgPath, pos: op.Pos,
								via: displayName(op.CalleePkg, op.CalleeName),
								pf:  pf, sanctionAnn: op.SanctionAnn,
							})
						}
					}
					if via, blocks := blockVia[calleeID]; blocks {
						reportHeldBlock(mf, pf, pkgPath, op,
							op.What+" may block ("+via+")")
					}
				}
			}
		}
	}

	cyclic := cyclicLockSets(edges)
	seen := make(map[string]bool)
	for _, e := range edges {
		inCycle := e.from == e.to ||
			(cyclic[e.from] != 0 && cyclic[e.from] == cyclic[e.to])
		if !inCycle {
			continue
		}
		if e.sanctionAnn > 0 {
			e.pf.Annotations[e.sanctionAnn-1].Used = true
			continue
		}
		key := fmt.Sprintf("%s|%s|%s:%d", e.from, e.to, e.pos.File, e.pos.Line)
		if seen[key] {
			continue
		}
		seen[key] = true
		mf.addFinding(e.pkgPath, factDiag{
			Pos: e.pos, Analyzer: "lockorder",
			Message: cycleMessage(e),
			Hint:    "acquire the locks in one blessed order everywhere, or sanction with //scglint:lockheld <reason>",
		})
	}
}

// reportHeldBlock emits one held-across-blocking finding, or consumes the
// sanctioning lockheld directive.
func reportHeldBlock(mf *moduleFacts, pf *pkgFacts, pkgPath string, op heldOp, what string) {
	if op.SanctionAnn > 0 {
		pf.Annotations[op.SanctionAnn-1].Used = true
		return
	}
	mf.addFinding(pkgPath, factDiag{
		Pos: op.Pos, Analyzer: "lockorder",
		Message: fmt.Sprintf("%s while holding %s", what, lockList(op.Held)),
		Hint:    "release the lock before the blocking operation, or sanction with //scglint:lockheld <reason>",
	})
}

func cycleMessage(e lockEdge) string {
	if e.from == e.to {
		if e.via != "" {
			return fmt.Sprintf("call to %s acquires %s while it is already held (self-deadlock: sync mutexes are not reentrant)",
				e.via, lockShort(e.to))
		}
		return fmt.Sprintf("acquiring %s while it is already held (self-deadlock: sync mutexes are not reentrant)",
			lockShort(e.to))
	}
	if e.via != "" {
		return fmt.Sprintf("lock ordering cycle: call to %s acquires %s while holding %s",
			e.via, lockShort(e.to), lockShort(e.from))
	}
	return fmt.Sprintf("lock ordering cycle: acquiring %s while holding %s",
		lockShort(e.to), lockShort(e.from))
}

// lockAcqSummaries computes, per function, the locks it (or anything it
// calls inside the module, transitively) may acquire on the caller's
// goroutine. Async acquisitions are excluded: a spawned literal holds its
// locks concurrently, not on behalf of the caller.
func lockAcqSummaries(mf *moduleFacts) map[string][]string {
	memo := make(map[string][]string, len(mf.fn))
	state := make(map[string]int, len(mf.fn)) // 0 new, 1 visiting, 2 done
	var visit func(id string) []string
	visit = func(id string) []string {
		if state[id] == 2 {
			return memo[id]
		}
		if state[id] == 1 {
			return nil // recursion cycle: the fixed point adds nothing new here
		}
		state[id] = 1
		ref, ok := mf.fn[id]
		if !ok {
			state[id] = 2
			return nil
		}
		set := make(map[string]bool)
		for _, la := range ref.ff.LockAcquires {
			if !la.Async {
				set[la.Lock] = true
			}
		}
		for _, cs := range ref.ff.Calls {
			if cs.Class != "internal" {
				continue
			}
			for _, l := range visit(funcID(cs.CalleePkg, cs.CalleeName)) {
				set[l] = true
			}
		}
		out := make([]string, 0, len(set))
		for l := range set {
			out = append(out, l)
		}
		sort.Strings(out)
		memo[id] = out
		state[id] = 2
		return out
	}
	for id := range mf.fn {
		visit(id)
	}
	return memo
}

// mayBlockSummaries computes, per function, whether it may block on the
// caller's goroutine, with a representative description of the first
// blocking operation (for messages). Async block sites are excluded.
func mayBlockSummaries(mf *moduleFacts) map[string]string {
	memo := make(map[string]string)
	state := make(map[string]int, len(mf.fn))
	var visit func(id string) (string, bool)
	visit = func(id string) (string, bool) {
		if state[id] == 2 {
			via, ok := memo[id]
			return via, ok
		}
		if state[id] == 1 {
			return "", false
		}
		state[id] = 1
		defer func() { state[id] = 2 }()
		ref, ok := mf.fn[id]
		if !ok {
			return "", false
		}
		for _, op := range ref.ff.HeldOps {
			if op.Kind == "block" && !op.Async {
				memo[id] = op.What
				return op.What, true
			}
		}
		for _, cs := range ref.ff.Calls {
			if cs.Class != "internal" {
				continue
			}
			if via, blocks := visit(funcID(cs.CalleePkg, cs.CalleeName)); blocks {
				memo[id] = via
				return via, true
			}
		}
		return "", false
	}
	ids := make([]string, 0, len(mf.fn))
	for id := range mf.fn {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		visit(id)
	}
	return memo
}

// cyclicLockSets runs Tarjan's SCC over the edge list and returns, for
// every lock on a multi-node cycle, a non-zero component id (self-edges
// are detected directly by the caller).
func cyclicLockSets(edges []lockEdge) map[string]int {
	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, compID := 1, 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, w := range members {
					comp[w] = compID
				}
			}
		}
	}
	nodes := make([]string, 0, len(adj))
	for v := range adj {
		nodes = append(nodes, v)
	}
	sort.Strings(nodes)
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp
}

// lockShort renders a lock identity for messages: the package base plus
// the owner ("server.(Cache).mu").
func lockShort(id string) string { return path.Base(id) }

// lockList renders a held set for messages.
func lockList(held []string) string {
	out := make([]string, len(held))
	for i, h := range held {
		out[i] = lockShort(h)
	}
	return strings.Join(out, ", ")
}
