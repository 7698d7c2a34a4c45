#!/usr/bin/env bash
# Usage: go-test-named.sh PATTERN [go test flags and packages]
#
# Runs `go test -v -run PATTERN ...` and fails if it fails, if go test prints
# "no tests to run", or if a test PATTERN names did not pass.  PATTERN is
# TOP or TOP/SUB, each part one test name or an (A|B|...) alternation of
# names, so a CI step that selects tests by name fails when one of them is
# renamed instead of passing on fewer tests than it names.
set -euo pipefail
pattern=$1
shift
log=$(mktemp)
go test -v -run "$pattern" "$@" 2>&1 | tee "$log"
if grep -q 'no tests to run' "$log"; then
  echo "::error::-run '$pattern' matched no tests"
  exit 1
fi
names() { tr -d '()^$' <<<"$1" | tr '|' '\n'; }
top=${pattern%%/*}
for t in $(names "$top"); do
  want=$t
  if [[ $pattern == */* ]]; then
    want=$(names "${pattern#*/}" | sed "s|^|$t/|")
  fi
  for name in $want; do
    if ! grep -qF -- "--- PASS: $name (" "$log"; then
      echo "::error::-run '$pattern': $name did not run and pass"
      exit 1
    fi
  done
done
