#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout of this repository:
#
#   bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, run records and temporary state
# all stay under $CARGO_TARGET_DIR (default .bench_build) in the
# checkout. See perfbench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d results || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, results/ and perfbench/ must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$PWD/$out"
mkdir -p "$out"

# Keep every file the go command writes inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root . --out "$out/perfbench-runs" "$@"
