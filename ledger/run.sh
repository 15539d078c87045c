#!/bin/sh
# Builds the ledger from source and runs it, passing every argument on.
# Run from the repository root, e.g.
#   sh ledger/run.sh --workload paper-cli --seed 1 --seconds 15 --trace 0
# Build output goes to standard error, so the last line of standard output
# is the ledger's result.
set -e
dune build --root . --cache=disabled --display quiet ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
