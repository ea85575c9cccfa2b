#!/usr/bin/env bash
# Builds the scgd benchmark from the checkout it sits in and runs it with
# the given arguments. Run it from the checkout root:
#
#   bash scgbench/run.sh --workload route-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache, temporary
# files, store directories, trace files) goes under .bench_build/ in the
# checkout, and the Go toolchain is pinned to the local one with the module
# proxy off, so the build never leaves the machine.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/scgbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$here" && go build -buildvcs=false -o "$out/scgbench" .)
exec "$out/scgbench" -dir "$out/run" "$@"
