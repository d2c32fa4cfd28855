#!/bin/bash
# Builds the benchmark into .bench_build at the root of the checkout, once,
# and runs it there. Everything it reads or writes stays inside the checkout:
# the Go build cache is .bench_build/gocache, results and traces go to
# bench/out.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/acr-bench" . >&2
exec "$root/.bench_build/acr-bench" -out "$root/bench/out" "$@"
