#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload hot-cache --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/servebench in the checkout, and no
# module or toolchain is fetched: the benchmark imports only this
# repository and the standard library.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Stamp the commit only when the checkout itself is a git work tree.
commit=""
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi

(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/servebench" .)
exec "$out/servebench" "$@"
