#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program (see README.md, or `bash bench/run.sh -h`). All that building
# and running leave behind (the binary, Go's build cache and other state,
# the probes' scratch files) stays under .bench_build/ at the root of the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/medea-bench" .
exec "$out/medea-bench" "$@"
