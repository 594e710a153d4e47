#!/usr/bin/env bash
# Non-test lines of the workspace's Rust sources.
#
#   scripts/lines.sh
#
# Counts every line of every `.rs` file under `crates/*/src` and `src/`,
# each file cut at its trailing `#[cfg(test)]` module (the attribute line
# followed by a `mod` line, the last such pair in the file). Prints one
# count per crate (the root package is `dgr`), then the total.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # files...: non-test lines of each file, summed
    awk '
        FNR == 1 { if (NR > 1) total += cut(); n = 0; last = 0 }
        { n++ }
        /^[[:space:]]*mod / && prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { last = n - 1 }
        { prev = $0 }
        function cut() { return last ? last - 1 : n }
        END { if (NR > 0) total += cut(); print total + 0 }
    ' "$@"
}

total=0
for dir in crates/*/src src; do
    name=$(basename "$(dirname "$dir")")
    [ "$dir" = src ] && name=dgr
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    [ ${#files[@]} -gt 0 ] || continue
    lines=$(count "${files[@]}")
    printf '%-12s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-12s %7d\n' total "$total"
