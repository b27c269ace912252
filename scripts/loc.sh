#!/bin/sh
# Net non-test Go line count: every line of every .go file that is not a
# _test.go file, outside the benchmark harness (perfbench/) and its build
# directory (.bench_build/). The ROADMAP tracks this number; a change
# that deletes code quotes it before and after.
#
# Run from the repository root, or pass a checkout to count:
#
#   ./scripts/loc.sh [DIR]
set -eu

cd "${1:-.}"
find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune \
    -o -type f -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat | wc -l | tr -d ' '
