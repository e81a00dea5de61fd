#!/usr/bin/env bash
# Builds the zen2ee benchmark from the sources in the current checkout and
# runs it. Run from the repository root:
#
#   bash zenbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file lands in .bench_build/ under
# the current directory. Outside a checkout of the repository (no go.mod
# beside zenbench/) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/zenbench" build -o "$out/zenbench" .
exec "$out/zenbench" "$@"
