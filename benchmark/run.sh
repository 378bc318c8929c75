#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout
# and replaces this shell with the binary: one foreground process, no
# children left behind. Run from the root of the checkout.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/porcupine-bench" .)
exec "$build/porcupine-bench" "$@"
