#!/usr/bin/env bash
# Builds and runs the host-clock benchmark. Run from the repository root:
#
#   bash hostbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the toolchain's per-user files (HOME
# points there) and, with --trace 1, the recorded spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/hostbench/go.mod" ]]; then
	echo "hostbench: run from the root of an edacloud checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -C "$root/hostbench" -o "$out/hostbench" . >&2

spans="$out/spans.jsonl"
exec "$out/hostbench" "$@" --spans "$spans"
