#!/usr/bin/env bash
# Builds perfbench from source and runs it; all arguments pass
# through (see perfbench/main.go). Run from the repository root. The build,
# the Go caches and the Go tool's own files stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
