#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload sum8-open --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the repository root. Build output goes to stderr, so
# stdout carries only the benchmark's report and its last-line JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=auto
# The go command keeps its local telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
