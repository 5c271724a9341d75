#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload powerlaw-inproc --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache included), so a fresh checkout
# builds the standard library once on its first run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GIT_CEILING_DIRECTORIES="$(dirname "$root")"

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
(cd "$root/perfbench" && go build -ldflags "-X rads/internal/buildinfo.Commit=$commit" \
	-o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" "$@"
