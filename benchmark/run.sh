#!/bin/sh
# Build the PAQOC benchmark and the paqoc CLI from source, then run the
# benchmark with the given arguments. Run it from the repository root:
#
#   sh benchmark/run.sh --workload suite --seed 1 --seconds 15 --trace 0
#
# The build goes to _build/ (dune's shared cache is off, so nothing is
# written outside the checkout); build output goes to stderr, so the
# last line of stdout stays the benchmark's JSON result.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/paqoc_bench.exe bin/paqoc_cli.exe >&2
exec ./_build/default/benchmark/paqoc_bench.exe "$@"
