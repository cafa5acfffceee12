#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-bfs --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare --base parent.jsonl --head change.jsonl
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build): the binary, the Go build cache, spans and
# CPU profiles.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
