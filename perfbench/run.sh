#!/usr/bin/env bash
# Builds the DSM benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload matmul-sl --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build products and the Go build cache stay
# under .bench_build/ in that root, so nothing is read or written elsewhere.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/dsd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/dsd here)" >&2
	exit 2
fi
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
