#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload paper-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — the Go build cache, the go
# command's telemetry and config, temp files, the binary, span files —
# stays under .bench_build/ in the checkout. The toolchain is the local
# one and the module graph is local too (bench's go.mod replaces the
# regiongrow module with the checkout), so nothing is fetched.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/regiongrow-bench" .)
exec "$out/regiongrow-bench" "$@"
