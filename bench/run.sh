#!/usr/bin/env bash
# The benchmark's one command. Run from the repository root:
#
#   bash bench/run.sh --workload cold_wide --seed 7 --seconds 10 --trace 0
#
# Everything it writes — the Go build cache, the harness, maimon and
# maimond, generated inputs, spill directories — stays under .bench_build/
# in the checkout, which .gitignore names.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local

# bench/ is a module of its own (it must not appear in the product's
# `go build ./...`); its go.mod points at the checkout root, so this fails
# where the product's source is missing.
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
