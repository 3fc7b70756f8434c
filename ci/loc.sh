#!/usr/bin/env bash
# Prints non-test source lines per crate: every `src/**/*.rs` up to its
# first `#[cfg(test)]` line, `src/bin/` excluded — the recipe ROADMAP.md
# and the line-count acceptance criteria of a `[simplicity]` PR quote.
#
#   ci/loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' -not -path '*/src/bin/*' -print0 |
        xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} {print}' | wc -l)
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
