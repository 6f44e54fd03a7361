#!/usr/bin/env bash
# Builds cmd/monitord and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload worst-churn --seed 1 --seconds 45 --trace 0
#   bash perfbench/run.sh steady -runs 10 [-workloads sweep] [-seed0 1]
#
# Build outputs, including the Go build cache, stay in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/monitord" ./cmd/monitord
go -C perfbench build -o "$out/perfbench" .
if [ "${1:-}" = steady ]; then
	shift
	exec "$out/perfbench" steady -monitord "$out/monitord" "$@"
fi
exec "$out/perfbench" -monitord "$out/monitord" "$@"
