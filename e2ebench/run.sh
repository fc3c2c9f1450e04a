#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload al-large --seed 1 --seconds 15 --trace 0
#
# Run it from the checkout's root. Build state (Go build cache, temporary
# files, the binary) stays under .bench_build/ in that checkout; the
# toolchain is never downloaded and no module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" -root "$root" "$@"
