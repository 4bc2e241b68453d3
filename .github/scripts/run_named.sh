#!/usr/bin/env bash
# Runs one named test filter and fails when the filter matches zero tests.
# `cargo test` with a filter that matches nothing still exits 0, so a renamed
# lockdown test would silently drop out of CI without this guard; every run
# is therefore checked for a non-zero pass count.
#
# Usage: run_named.sh <harness> <filter> [extra cargo test args...]
#          runs the filter inside the integration-test harness tests/<harness>.rs
#        run_named.sh --lib <crate> <filter> [extra cargo test args...]
#          runs the filter over the unit tests of workspace crate <crate>
set -euo pipefail

if [ "$1" = "--lib" ]; then
  target=(-p "$2" --lib)
  where="the $2 unit tests"
  shift 2
else
  target=(--test "$1")
  where="$1"
  shift
fi
filter="$1"
shift

if ! out=$(cargo test -q "${target[@]}" "$filter" "$@" 2>&1); then
  echo "$out"
  exit 1
fi
echo "$out"
echo "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed' \
  || { echo "::error::filter '$filter' matched no tests in $where"; exit 1; }
