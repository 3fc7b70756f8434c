#!/usr/bin/env bash
# Prints non-test source lines per crate: every `src/**/*.rs` up to its
# first `#[cfg(test)]` line, `src/bin/` excluded — the recipe ROADMAP.md
# and the line-count acceptance criteria of a `[simplicity]` PR quote.
# `core/codegen` (the CUDA emitter, part of `core`) gets its own
# sub-line.
#
#   ci/loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

# Non-test lines of every `*.rs` under a directory.
count() {
    find "$1" -name '*.rs' -not -path '*/src/bin/*' -print0 |
        xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} {print}' | wc -l
}

total=0
for crate in crates/*/; do
    n=$(count "$crate/src")
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    if [ "$(basename "$crate")" = core ]; then
        printf '  %-12s %4d\n' core/codegen "$(count "$crate/src/codegen")"
    fi
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
