#!/usr/bin/env bash
# Prints the non-test source lines of every crate and their total: the lines
# of each `.rs` file above its first `#[cfg(test)]`, over `crates/*/src` and
# the facade's `src/`. The vendored shims under `vendor/` are not counted.
#
# Usage: source_lines.sh   (from the repository root)
set -euo pipefail

count() {
  find "$1" -name '*.rs' -not -path '*/vendor/*' -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { stop = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ } END { print n + 0 }'
}

total=0
printf '%-12s %8s\n' crate lines
for dir in src crates/*/src; do
  name=pes
  [ "$dir" = src ] || name=$(basename "$(dirname "$dir")")
  lines=$(count "$dir")
  total=$((total + lines))
  printf '%-12s %8d\n' "$name" "$lines"
done
printf '%-12s %8d\n' total "$total"
