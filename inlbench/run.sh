#!/usr/bin/env bash
# Build inlbench from source and run it; every argument is passed on.
#   bash inlbench/run.sh --workload optimize-cold --seed 1 --seconds 20 --trace 0
# Must run from a full checkout: the benchmark links the repository's
# libraries, so it refuses (exit 2) where they are absent.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "inlbench: dune-project and lib/ not found; run from a full checkout" >&2
  exit 2
fi
# keep the build inside the checkout: no shared dune cache
DUNE_CACHE=disabled dune build --root . ./inlbench/inlbench.exe 1>&2
exec ./_build/default/inlbench/inlbench.exe "$@"
