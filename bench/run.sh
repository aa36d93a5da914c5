#!/usr/bin/env bash
# Build the benchmark from source and run it from the checkout root.
# Everything the build writes (Go build cache, module cache, binary)
# stays under .bench_build/ in the checkout; everything a run writes
# stays under bench/out/. The module has no dependencies outside this
# repository, so nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/insipsbench" .
exec "$root/.bench_build/insipsbench" "$@"
