#!/usr/bin/env bash
# Builds the greylistd benchmark from source and runs it, from the
# repository root:
#
#   bash greybench/run.sh --workload mixed --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache, the go command's own config and
# telemetry files, and the benchmark's checkpoints all stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
bin="$out/greybench"
(cd "$root/greybench" && go build -buildvcs=false -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"
exec "$bin" --dir "$out" "$@"
