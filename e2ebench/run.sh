#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# and the traced run's span files stay under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local \
	GOFLAGS= CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
