#!/usr/bin/env bash
# Prints the non-test source lines of every crate and their total: the lines
# of each `.rs` file above its first `#[cfg(test)]`, over `crates/*/src` and
# the facade's `src/`. The vendored shims under `vendor/` are not counted.
# Then lists the ten largest files by the same measure.
#
# Usage: source_lines.sh   (from the repository root)
set -euo pipefail

# Prints `<lines> <file>` for every `.rs` file under the given directories.
per_file() {
  find "$@" -name '*.rs' -not -path '*/vendor/*' -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { if (f) print n + 0, f; f = FILENAME; n = 0; stop = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ } END { if (f) print n + 0, f }'
}

count() {
  per_file "$1" | awk '{ n += $1 } END { print n + 0 }'
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

printf '\n%-40s %8s\n' 'largest files' lines
per_file src crates/*/src | sort -k1,1nr -k2 | head -n 10 \
  | awk '{ printf "%-40s %8d\n", $2, $1 }'
