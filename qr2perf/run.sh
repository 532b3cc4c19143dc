#!/usr/bin/env bash
# Builds the QR2 whole-request benchmark from the checkout it sits in and
# runs it. Run from the checkout root:
#
#   bash qr2perf/run.sh --workload pool_hot --seed 1 --seconds 6 --trace 0
#
# Build outputs, the Go build cache and span dumps all go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
# fetched from the network.
set -euo pipefail

root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/qr2perf" .)
exec "$build/qr2perf" --spans "$build/qr2perf-spans" "$@"
