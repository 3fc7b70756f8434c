#!/usr/bin/env bash
# Prints non-test source lines per crate: every `src/**/*.rs` up to its
# first `#[cfg(test)]` line, `src/bin/` excluded — the recipe ROADMAP.md
# and the line-count acceptance criteria of a `[simplicity]` PR quote.
# `core/codegen` (the CUDA emitter, part of `core`), `core/kernel.rs`
# (the kernel IR it prints and `lower` prices) and
# `runtime/executor.rs` (the schedule executor, part of `runtime`) get
# their own sub-lines.
#
#   ci/loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

# Non-test lines of every `*.rs` under a directory (or of one file).
count() {
    find "$1" -name '*.rs' -not -path '*/src/bin/*' -print0 |
        xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} {print}' | wc -l
}

total=0
for crate in crates/*/; do
    n=$(count "$crate/src")
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    case "$(basename "$crate")" in
        core)
            printf '  %-19s %4d\n' core/codegen "$(count "$crate/src/codegen")"
            printf '  %-19s %4d\n' core/kernel.rs "$(count "$crate/src/kernel.rs")"
            ;;
        runtime) printf '  %-19s %4d\n' runtime/executor.rs "$(count "$crate/src/executor.rs")" ;;
    esac
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
