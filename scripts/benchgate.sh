#!/usr/bin/env bash
# benchgate.sh PKG BENCH BENCHTIME [BUDGET_NS...]
#
# Runs one Go benchmark (exactly BENCH, no sub-matches) and prints its
# ns/op on stdout. With budgets it fails unless the measurement is below
# every one of them; a budget may be another benchmark's printed ns/op.
#
#   scripts/benchgate.sh ./internal/obs BenchmarkSpanDisabled 100000x 100
set -euo pipefail
pkg=$1 bench=$2 benchtime=$3
shift 3
ns="$(go test "$pkg" -run '^$' -bench "^${bench}\$" -benchtime="$benchtime" |
  awk -v b="$bench" '!found && $1 ~ "^" b "(-[0-9]+)?$" { print $3; found = 1 }')"
if [ -z "$ns" ]; then
  echo "$bench: no result from $pkg" >&2
  exit 1
fi
echo "$bench: ${ns} ns/op${*:+ (budget: below $*)}" >&2
for budget in "$@"; do
  awk -v ns="$ns" -v b="$budget" 'BEGIN { exit !(ns + 0 < b + 0) }' || {
    echo "$bench: ${ns} ns/op is not below ${budget} ns/op" >&2
    exit 1
  }
done
echo "$ns"
