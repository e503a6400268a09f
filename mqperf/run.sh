#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload:
#
#   bash mqperf/run.sh --workload mine --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, Go's
# temporary files and trace files stay under .bench_build/ there. Outside
# a full checkout (no ../go.mod next to this directory) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go -C "$root/mqperf" build -buildvcs=false -o "$out/mqperf" .
MQPERF_COMMIT="$commit" exec "$out/mqperf" -out "$out" "$@"
