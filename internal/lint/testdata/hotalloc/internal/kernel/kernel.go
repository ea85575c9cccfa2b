// Package kernel exercises hotalloc's allocating-construct catalog and the
// call-graph walk into sibling packages: every hot root below either trips
// one construct per marked line or proves an escape hatch (coldpath cut,
// statement-level exemption) leaves the walk silent.
package kernel

import (
	"fmt"

	"fixhot/internal/mid"
)

// Hot is an annotated root: the allocating constructs inside it are
// findings, and the call into mid continues the walk across packages.
//
//scglint:hotpath fixture root: every construct below must be flagged
func Hot(xs []int, m map[string]int, f func(int) int) int {
	buf := make([]int, 4)              //lintwant make([]int, 4) allocates in hot path
	xs = append(xs, buf[0])            //lintwant may grow its backing array in hot path
	m["k"] = 1                         //lintwant map write may allocate in hot path
	return f(xs[0]) + mid.Step(len(m)) //lintwant dynamic call f in hot path
}

// record consumes any value; a concrete argument boxes at the call site.
func record(v interface{}) int {
	if _, ok := v.(int); ok {
		return 1
	}
	return 0
}

// BoxArg boxes its concrete argument into record's interface parameter.
//
//scglint:hotpath fixture root: call-site boxing
func BoxArg(n int) int {
	return record(n) //lintwant interface boxing: argument 1 to record allocates in hot path
}

// BoxReturn boxes its concrete result into the interface return type.
//
//scglint:hotpath fixture root: return boxing
func BoxReturn(n int) interface{} {
	return n //lintwant interface boxing at return allocates in hot path
}

var (
	sink any
	kept *int
)

// BoxAssign boxes its argument by assignment, which no construct the walk
// reads names; the compiler's escape analysis reports it.
//
//scglint:hotpath fixture root: boxing by assignment
func BoxAssign(n int) {
	sink = n //lintwant compiler: n escapes to heap in hot path [kernel.BoxAssign]
}

// KeepAddr keeps a local's address past the call, so the compiler moves
// the local to the heap.
//
//scglint:hotpath fixture root: kept local address
func KeepAddr(n int) {
	x := n + 1 //lintwant compiler: moved to heap: x
	kept = &x
}

// Close allocates a closure over its parameter.
//
//scglint:hotpath fixture root: closure creation
func Close(n int) func(int) int {
	inc := func(v int) int { return v + n } //lintwant closure creation allocates in hot path
	return inc
}

// Str builds strings, which allocates at every step.
//
//scglint:hotpath fixture root: string building
func Str(a, b string, bs []byte) string {
	s := a + b      //lintwant string concatenation allocates in hot path
	t := string(bs) //lintwant conversion string(bs) allocates in hot path
	u := s + t      //lintwant string concatenation allocates in hot path
	return u
}

type pair struct{ a, b int }

// Lit materializes a composite literal.
//
//scglint:hotpath fixture root: composite literal
func Lit(n int) int {
	p := pair{a: n, b: n} //lintwant composite literal pair
	return p.a + p.b
}

// Std calls a standard-library package outside the allocation-free
// allowlist; the boxing of n folds into the flagged call, so the line
// carries exactly one finding.
//
//scglint:hotpath fixture root: std call off the allowlist
func Std(n int) string {
	return fmt.Sprint(n) //lintwant package fmt is not on the allocation-free allowlist
}

// Cut reaches mid.Cold, but Cold's function-level coldpath severs the edge:
// Cold's allocation is not reported and its directive counts as used.
//
//scglint:hotpath fixture root: the coldpath callee must stay unentered
func Cut(n int) []int {
	return mid.Cold(n)
}

// Justified exempts a single statement with a statement-level coldpath.
//
//scglint:hotpath fixture root: statement-level exemption
func Justified(xs []int) []int {
	return append(xs, 1) //scglint:coldpath fixture: growth amortized by caller preallocation
}

// JustifiedEscape keeps a local's address on a statement a coldpath
// exempts: the compiler still moves the local to the heap, but the escape
// rule honors the directive and counts it as used.
//
//scglint:hotpath fixture root: statement-level exemption of a compiler escape
func JustifiedEscape(n int) {
	x := n //scglint:coldpath fixture: kept once at start-up, not per call
	kept = &x
}

// Ignored proves the pre-existing //scglint:ignore machinery still
// suppresses the new analyzer: the make below produces no finding and the
// directive counts as used.
//
//scglint:hotpath fixture root: the ignore directive below must suppress
func Ignored(n int) []int {
	return make([]int, n) //scglint:ignore hotalloc fixture: legacy suppression still works
}

// stray is not a function declaration, so the hotpath directive below binds
// to nothing and is itself a finding.
//
//scglint:hotpath fixture: stray directive //lintwant not attached to a function declaration
var stray = 0

//scglint:hotpathz fixture: typo verb //lintwant unknown directive scglint:hotpathz
var typo = stray
