#!/usr/bin/env bash
# Size ledger: non-test Rust lines per crate, their total, and the bytes
# of DESIGN.md. A file's non-test lines are the lines before its test
# tail, which starts at the first `#[cfg(test)]` or `#[cfg(all(test, …))]`
# in column 0 (an indented gate or one inside a string does not end the
# code); files under a `tests/` directory are not counted.
# The root package (`src/`) is listed as `harness`.
#
#   scripts/size.sh            # run from anywhere inside the repository
#   scripts/size.sh <rev>      # the same, beside <rev>'s counts and the delta
#
# With a revision, the counts of <rev> come from a `git archive` of it
# unpacked in a temporary directory; a crate that exists on one side only
# counts 0 on the other.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -print0 2>/dev/null |
        xargs -0 -r awk '
            FNR == 1 { in_test = 0 }
            /^#\[cfg\((test\)|all\(test,)/ { in_test = 1 }
            !in_test { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

# One `name lines` row per crate of the tree rooted at $1, then `total`
# and `DESIGN.md` (its bytes).
ledger() {
    (
        cd "$1"
        total=0
        for dir in src crates/*/; do
            dir=${dir%/}
            [ -d "$dir" ] || continue
            name=${dir#crates/}
            [ "$dir" = src ] && name=harness
            n=$(count "$dir")
            total=$((total + n))
            printf '%s %d\n' "$name" "$n"
        done
        printf '%s %d\n' total "$total"
        printf '%s %d\n' DESIGN.md "$(wc -c < DESIGN.md 2>/dev/null || echo 0)"
    )
}

if [ $# -eq 0 ]; then
    printf '%-10s %7s\n' crate lines
    ledger . | awk '{ printf "%-10s %7d\n", $1, $2 }'
    exit 0
fi

rev=$1
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base"
printf '%-10s %7s %7s %7s\n' crate lines base delta
# Rows in this tree's order, then any crate only the base still has;
# `total` and `DESIGN.md` last.
awk '
    NR == FNR { old[$1] = $2; order_old[++m] = $1; next }
    { now[$1] = $2; order[++n] = $1 }
    function row(name) {
        printf "%-10s %7d %7d %+7d\n", name, now[name], old[name], now[name] - old[name]
    }
    END {
        for (i = 1; i <= n; i++) if (order[i] != "total" && order[i] != "DESIGN.md") row(order[i])
        for (i = 1; i <= m; i++) if (!(order_old[i] in now)) row(order_old[i])
        row("total")
        row("DESIGN.md")
    }' <(ledger "$base") <(ledger .)
