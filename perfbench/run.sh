#!/usr/bin/env bash
# Builds the benchmark program and cmd/ssnserve from source, then runs the
# program with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload maxssn-batch --seed 1 --seconds 25 --trace 0
#
# Every build artefact, the Go build cache and the Go tool's own state stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/ssnserve" ssnkit/cmd/ssnserve) 1>&2

exec "$out/perfbench" -server "$out/ssnserve" -root "$root" "$@"
