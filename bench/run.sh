#!/usr/bin/env bash
# The benchmark's one command: build bench/ from source, then run it.
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, results under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/sibench" .
exec "$root/.bench_build/sibench" "$@"
