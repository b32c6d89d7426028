#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ under the current directory (the checkout root) and runs it.
# Everything the Go toolchain writes stays inside the checkout.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C "$src" build -o "$out/ftcbench" .
exec "$out/ftcbench" "$@"
