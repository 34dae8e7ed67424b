#!/usr/bin/env bash
# Builds etude-server and the benchmark from this checkout's sources, then
# runs one benchmark workload. All build output and Go caches stay under
# .bench_build/ in the checkout root.
#
#   bash perfbench/run.sh --workload groceries-large --seed 7 --seconds 24 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/etude-server || ! -d internal ]]; then
	echo "perfbench: $root holds no etude source tree to build" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0

go build -o "$build/bin/etude-server" ./cmd/etude-server
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --server "$build/bin/etude-server" "$@"
