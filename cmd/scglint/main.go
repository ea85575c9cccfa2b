// Command scglint is the project's static-analysis suite: five custom
// analyzers that machine-check the repository's conventions using only the
// standard library's go/ast, go/parser, go/token, and go/types. Each one
// either caught a real bug in this tree or enforces an invariant nothing
// else checks:
//
//   - panicstyle: panic messages read "pkg: Func: message";
//   - droppederr: error results are never silently discarded;
//   - telemetrylabel: scgd's metric names and label keys are constants
//     registered once, so /metricsz cardinality is static;
//   - hotalloc: //scglint:hotpath kernels, and everything they reach
//     through the module call graph, are free of allocating constructs
//     (findings print the call chain from the root); it also runs
//     `go build -gcflags=-m` over the packages holding a kernel and
//     reports each heap escape the compiler finds in a kernel's body,
//     except in a panic argument, at an inlined call into module code
//     (the walk vets the callee), under a statement-level coldpath, or
//     on a line already reported;
//   - lockorder: the module's lock-acquisition graph is acyclic, and no
//     lock is held across a blocking operation.
//
// Usage:
//
//	go run ./cmd/scglint ./...
//	go run ./cmd/scglint -json ./...
//	go run ./cmd/scglint -only droppederr,lockorder ./...
//	go run ./cmd/scglint -list -v
//
// The driver exits 0 when the tree is clean, 1 when findings were reported,
// and 2 when the module could not be loaded or the flags are invalid.
// Findings can be suppressed with an audited directive on the flagged
// statement (trailing, or on its own line above — covering the
// statement's full line span when it wraps):
//
//	//scglint:ignore <analyzer> <reason>
//
// The interprocedural analyzers read three more directives, all with
// mandatory reasons: //scglint:hotpath <why> marks a function a hot-path
// root, //scglint:coldpath <why> cuts call-graph edges into a function (or,
// on a statement, exempts that statement's allocations), and
// //scglint:lockheld <why> sanctions a deliberate hold across a blocking
// operation or a lock-order edge (a singleflight barrier, a mutex whose
// critical section is the serialized write itself). Unused or malformed
// directives are themselves findings.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
