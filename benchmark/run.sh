#!/bin/bash
# Builds (go caches the result) and runs the benchmark from the root of a
# checkout, keeping every build artefact inside the checkout:
#
#   bash benchmark/run.sh --workload solve_cold --seed 1 --seconds 15 --trace 0
set -eu
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
exec go run -C benchmark . "$@"
