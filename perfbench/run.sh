#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, Go's build cache and
# configuration and any trace files stay under .bench_build/ there. Go
# telemetry is turned off there, so the go command starts no background
# process that could outlive the run.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
go telemetry off >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
