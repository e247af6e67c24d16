#!/usr/bin/env bash
# Size ledger: non-test Rust lines per crate, their total, and the bytes
# of DESIGN.md. A file's non-test lines are the lines before its first
# `#[cfg(test)]`; files under a `tests/` directory are not counted.
# The root package (`src/`) is listed as `harness`.
#
#   scripts/size.sh            # run from anywhere inside the repository
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -print0 2>/dev/null |
        xargs -0 -r awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
printf '%-10s %7s\n' crate lines
for dir in src crates/*/; do
    dir=${dir%/}
    name=${dir#crates/}
    [ "$dir" = src ] && name=harness
    n=$(count "$dir")
    total=$((total + n))
    printf '%-10s %7d\n' "$name" "$n"
done
printf '%-10s %7d\n' total "$total"
printf '%-10s %7d\n' DESIGN.md "$(wc -c < DESIGN.md)"
