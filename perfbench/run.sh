#!/usr/bin/env bash
# Builds the benchmark and the intentd server from the sources of the
# checkout this script sits in, then runs one benchmark invocation.
# Every build product and scratch file stays under <checkout>/.bench_build.
#
#   bash perfbench/run.sh --workload classic-files --seed 1 --seconds 36 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/home"

# The go command's caches, config and telemetry live in the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/intentd" bgpintent/cmd/intentd
cd "$root"
exec "$out/bin/perfbench" -root "$root" -intentd "$out/bin/intentd" "$@"
