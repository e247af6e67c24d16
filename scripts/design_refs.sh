#!/usr/bin/env sh
# Fails when a `DESIGN.md §N` or `§N.M` cited in crates/, src/,
# examples/, scripts/, tests/ or README.md names no numbered heading of
# DESIGN.md (`## N. Title`, `### N.M Title`). A citation may wrap: a
# line ending in `DESIGN.md` continues on the next one, after that
# line's comment marker (`//!`, `///`, `//`, `#`). Build output and the
# lint's fixtures are not read.
#
#   scripts/design_refs.sh [root]    # default: the repository this script is in
set -eu
root="${1:-$(dirname "$0")/..}"
cd "$root"

sections="$(mktemp)"
trap 'rm -f "$sections"' EXIT
LC_ALL=C sed -n 's/^##* \([0-9][0-9]*\(\.[0-9][0-9]*\)\{0,1\}\)\.\{0,1\} .*/\1/p' \
    DESIGN.md > "$sections" 2>/dev/null || true

{
    find crates src examples scripts tests -type f \
        \( -name '*.rs' -o -name '*.sh' -o -name '*.md' \) \
        -not -path '*/target/*' -not -path 'crates/lint/fixtures/*' 2>/dev/null
    [ -f README.md ] && echo README.md
} | LC_ALL=C sort | tr '\n' '\0' | LC_ALL=C xargs -0 awk -v sections="$sections" '
BEGIN {
    while ((getline s < sections) > 0) known[s] = 1
    cite = "DESIGN\\.md`?[ \t]*§[0-9]+(\\.[0-9]+)?"
}
function check(ref, line) {
    sub(/^.*§/, "", ref)
    if (!(ref in known)) {
        printf "%s:%d: DESIGN.md §%s names no heading of DESIGN.md\n", FILENAME, line, ref
        bad++
    }
}
FNR == 1 { wrapped = 0 }
{
    if (wrapped) {
        head = $0
        sub(/^[ \t]*(\/\/[\/!]?|#)?[ \t]*/, "", head)
        if (match(head, /^§[0-9]+(\.[0-9]+)?/)) check(substr(head, RSTART, RLENGTH), FNR)
    }
    rest = $0
    while (match(rest, cite)) {
        check(substr(rest, RSTART, RLENGTH), FNR)
        rest = substr(rest, RSTART + RLENGTH)
    }
    wrapped = ($0 ~ /DESIGN\.md`?[ \t]*$/)
}
END {
    if (bad) {
        printf "design_refs: %d citation(s) of a missing DESIGN.md section\n", bad > "/dev/stderr"
        exit 1
    }
}'
