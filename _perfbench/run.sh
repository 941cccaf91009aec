#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root: bash _perfbench/run.sh --workload store-scan --seed 1 ...
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the store file and the traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/_perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
