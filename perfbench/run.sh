#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it, passing
# every argument through.  Run from the repository root:
#
#   bash perfbench/run.sh --workload crawl-stream --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temp files and tool state stay under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
