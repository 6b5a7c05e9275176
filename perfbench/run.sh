#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout, then runs it
# with the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload hm1-none --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
