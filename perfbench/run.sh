#!/usr/bin/env bash
# Builds the whole-stack edge benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload bookworm-read95 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, per-node WAL directories) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/run"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

# The revision, when the tree is a git checkout of its own (never one of
# an enclosing directory).
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/edgebench" .)
exec "$out/edgebench" --workdir "$out/run" --commit "$commit" "$@"
