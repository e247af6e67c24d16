#!/usr/bin/env sh
# Bench regression gate: compares a smoke-run DDEMOS_BENCH_JSON recording
# against a checked-in baseline, warning when a benchmark's median exceeds
# the baseline median by more than the tolerance factor.
#
#   scripts/bench_check.sh <smoke.jsonl> [baseline.json] [tolerance]
#
#   smoke.jsonl   one JSON object per line, as written by the criterion
#                 shim when DDEMOS_BENCH_JSON is set
#   baseline.json checked-in array (default: BENCH_micro.json)
#   tolerance     allowed slowdown factor (default: 3.0 — smoke runs on
#                 shared CI runners are noisy; this catches order-of-
#                 magnitude regressions, not percent-level drift)
#
# Exits non-zero when any benchmark regresses past the tolerance. CI runs
# this as a hard gate at the default 3.0x tolerance: generous enough for
# shared-runner noise, tight enough to stop order-of-magnitude slips.
set -eu

smoke="${1:?usage: bench_check.sh <smoke.jsonl> [baseline.json] [tolerance]}"
baseline="${2:-BENCH_micro.json}"
tolerance="${3:-3.0}"

if [ ! -f "$smoke" ]; then
    echo "bench_check: no smoke recording at $smoke (was DDEMOS_BENCH_JSON set?)" >&2
    exit 1
fi
if [ ! -f "$baseline" ]; then
    echo "bench_check: no baseline at $baseline" >&2
    exit 1
fi

# Extract "id median_ns" pairs from either format (JSONL or wrapped array).
extract() {
    sed -n 's/.*"id":"\([^"]*\)".*"median_ns":\([0-9]*\).*/\1\t\2/p' "$1"
}

tmp_base="$(mktemp)"
trap 'rm -f "$tmp_base"' EXIT
extract "$baseline" > "$tmp_base"

extract "$smoke" | awk -F'\t' -v tol="$tolerance" -v basefile="$tmp_base" '
BEGIN {
    while ((getline line < basefile) > 0) {
        split(line, f, "\t")
        base[f[1]] = f[2]
    }
    close(basefile)
    regressions = 0
    compared = 0
}
{
    id = $1; median = $2
    if (!(id in base)) {
        printf "  new   %-45s %12.0f ns (no baseline)\n", id, median
        next
    }
    compared++
    ratio = median / base[id]
    if (ratio > tol) {
        printf "  SLOW  %-45s %12.0f ns vs %12.0f ns baseline (%.2fx > %.1fx)\n", \
            id, median, base[id], ratio, tol
        regressions++
    } else {
        printf "  ok    %-45s %12.0f ns vs %12.0f ns baseline (%.2fx)\n", \
            id, median, base[id], ratio
    }
}
END {
    if (compared == 0) {
        print "bench_check: no overlapping benchmark ids; baseline stale?" > "/dev/stderr"
        exit 1
    }
    if (regressions > 0) {
        printf "bench_check: %d benchmark(s) regressed past %.1fx\n", regressions, tol > "/dev/stderr"
        exit 1
    }
    printf "bench_check: %d benchmark(s) within %.1fx of baseline\n", compared, tol
}
'
