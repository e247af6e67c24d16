#!/usr/bin/env sh
# Checks scripts/bench_check.sh on rows slower than 2^31 - 1 ns: a 3 s
# median must print as 3000000000, not clamp (mawk's `%d` stops at
# 2147483647), and the verdict must be the one the ratio implies.
# Runs under each distinct awk found of mawk, gawk and the default `awk`.
#
#   scripts/bench_check_test.sh        # run from anywhere inside the repository
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

row() {
    printf '{"id":"%s","median_ns":%s,"mean_ns":%s,"min_ns":%s,"samples":10}' "$1" "$2" "$2" "$2"
}
printf '[\n%s,\n%s\n]\n' "$(row 'slow/three seconds' 3000000000)" \
    "$(row 'slow/one second' 1000000000)" > "$tmp/baseline.json"
{
    row 'slow/three seconds' 3000000000; echo
    row 'slow/one second' 3000000000; echo
    row 'slow/new row' 3000000000; echo
} > "$tmp/smoke.jsonl"

failures=0
fail() {
    echo "bench_check_test ($1): $2" >&2
    failures=$((failures + 1))
}

# expect <awk> <tolerance> <exit status> <pattern>...: runs the check and
# greps its output for every pattern.
expect() {
    awk_name=$1 tolerance=$2 want=$3
    shift 3
    status=0
    PATH="$tmp/bin:$PATH" scripts/bench_check.sh "$tmp/smoke.jsonl" "$tmp/baseline.json" \
        "$tolerance" > "$tmp/out" 2>&1 || status=$?
    [ "$status" -eq "$want" ] ||
        fail "$awk_name" "tolerance $tolerance: exit $status, expected $want"
    for pattern in "$@"; do
        grep -q -- "$pattern" "$tmp/out" ||
            fail "$awk_name" "tolerance $tolerance: no line matching '$pattern'"
    done
    if grep -q 2147483647 "$tmp/out"; then
        fail "$awk_name" "tolerance $tolerance: a median clamped to 2147483647"
    fi
}

ran=0 seen=
for candidate in mawk gawk awk; do
    bin=$(command -v "$candidate" 2>/dev/null) || continue
    bin=$(readlink -f "$bin")
    case " $seen " in *" $bin "*) continue ;; esac
    seen="$seen $bin"
    mkdir -p "$tmp/bin"
    ln -sf "$bin" "$tmp/bin/awk"
    ran=$((ran + 1))
    # The one-second row ran 3x slower: within a 3.0x tolerance ...
    expect "$candidate" 3.0 0 \
        'ok    slow/three seconds .* 3000000000 ns vs   3000000000 ns baseline (1.00x)' \
        'ok    slow/one second .* 3000000000 ns vs   1000000000 ns baseline (3.00x)' \
        'new   slow/new row .* 3000000000 ns (no baseline)' \
        'bench_check: 2 benchmark(s) within 3.0x of baseline'
    # ... and past a 2.0x one.
    expect "$candidate" 2.0 1 \
        'SLOW  slow/one second .* 3000000000 ns vs   1000000000 ns baseline (3.00x > 2.0x)' \
        'bench_check: 1 benchmark(s) regressed past 2.0x'
done

if [ "$ran" -eq 0 ]; then
    echo "bench_check_test: no awk found" >&2
    exit 1
fi
if [ "$failures" -gt 0 ]; then
    echo "bench_check_test: $failures failure(s)" >&2
    exit 1
fi
echo "bench_check_test: ok under $ran awk(s)"
