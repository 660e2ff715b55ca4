#!/usr/bin/env bash
# Build the tuning benchmark from source and run it:
#   bash tunebench/run.sh --workload op-search --seed 1 --seconds 36 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "tunebench: run from the root of a full source checkout" >&2
  exit 2
fi
# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./tunebench/main.exe 1>&2
exec ./_build/default/tunebench/main.exe "$@"
