#!/usr/bin/env bash
# Build the pipeline benchmark from this source checkout, then run it.
# Usage (from the repository root):
#   bash pipebench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib/core ] || [ ! -d lib/workload ]; then
  echo "pipebench: $root is not an XChainWatcher source checkout" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./pipebench/main.exe >&2
exec ./_build/default/pipebench/main.exe "$@"
