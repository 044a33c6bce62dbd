#!/usr/bin/env bash
# Build perfbench from source into .bench_build, then run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything is built and written inside the checkout; dune's shared
# cache is disabled so nothing lands outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/perfbench.exe >&2
exec .bench_build/default/perfbench/perfbench.exe "$@"
