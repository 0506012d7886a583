#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with every
# argument passed through, e.g.
#   bash bench/e2e/run.sh --workload ilcs-wide --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Build output goes to stderr, so the
# benchmark's last stdout line stays its JSON result.
set -eu
dune build --root . ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
