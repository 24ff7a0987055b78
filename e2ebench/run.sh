#!/usr/bin/env bash
# Builds loopdetect, loopscoped, loopscope-agg and the benchmark harness
# from this checkout, then runs the harness with the given arguments.
# Everything built or generated stays under .bench_build/ at the
# repository root.
#
#   bash e2ebench/run.sh --workload trace-sparse --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh steady --workload trace-loopy --runs 10 --seconds 20
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work"

# Keep the Go build cache inside the checkout and never reach for a
# network toolchain or module proxy: the module has no dependencies.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off

go build -o "$build/bin/" ./cmd/loopdetect ./cmd/loopscoped ./cmd/loopscope-agg >&2
(cd e2ebench && go build -o "$build/bin/e2ebench" .) >&2

if [ "${1:-}" = steady ]; then
    shift
    exec "$build/bin/e2ebench" steady -bin "$build/bin" -work "$build/work" "$@"
fi
exec "$build/bin/e2ebench" -bin "$build/bin" -work "$build/work" "$@"
