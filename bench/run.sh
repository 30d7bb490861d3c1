#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# The Go build cache is kept inside the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/../.bench_build/go-build" GOTOOLCHAIN=local
exec go run . "$@"
