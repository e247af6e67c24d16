#!/usr/bin/env sh
# Regenerates the checked-in BENCH_*.json perf baselines:
#
#   BENCH_micro.json — crypto kernel baselines (msm vs naive loop,
#                      batch_normalize, batch_invert vs
#                      Fermat, fixed-base tables) plus the pre-existing
#                      micro benches.
#   BENCH_setup.json — EA setup of a 10k-ballot election at 1 vs 8 worker
#                      threads (the ids record the machine's hardware
#                      thread count — interpret the speedup against it).
#
# Each bench binary appends one JSON object per measurement to the file
# named by DDEMOS_BENCH_JSON (see shims/criterion); this script wraps the
# lines into a JSON array. Run from the repository root:
#
#   scripts/bench_record.sh
set -eu

cd "$(dirname "$0")/.."

record() {
    bench="$1"
    out="$2"
    tmp="$(mktemp)"
    echo "== recording $bench -> $out"
    DDEMOS_BENCH_JSON="$tmp" cargo bench -p ddemos-bench --bench "$bench"
    { printf '[\n'; awk 'NR > 1 { printf ",\n" } { printf "%s", $0 } END { printf "\n" }' "$tmp"; printf ']\n'; } > "$out"
    rm -f "$tmp"
}

record micro BENCH_micro.json
record setup BENCH_setup.json

# BENCH_load.json — closed-loop vote-casting throughput + latency
# percentiles over the event-loop driver (examples/load_gen.rs writes
# bench_check-compatible rows directly). The 1k-connection rows are the
# CI smoke baseline; set DD_LOAD_FULL=1 to also record the
# 100k-connection demonstration (several minutes of ramp).
tmp="$(mktemp)"
echo "== recording load (1k connections) -> BENCH_load.json"
cargo run --release --example load_gen -- --conns 1000 --measure 5 --out "$tmp"
if [ "${DD_LOAD_FULL:-0}" = "1" ]; then
    tmp_full="$(mktemp)"
    echo "== recording load (100k connections) -> BENCH_load.json"
    cargo run --release --example load_gen -- --conns 100000 --measure 30 --warmup 5 --out "$tmp_full"
    cat "$tmp_full" >> "$tmp"
    rm -f "$tmp_full"
fi
{ printf '[\n'; awk 'NR > 1 { printf ",\n" } { printf "%s", $0 } END { printf "\n" }' "$tmp"; printf ']\n'; } > BENCH_load.json
rm -f "$tmp"

# BENCH_profile.json — the wall-clock election profile: end-to-end time
# for the 1k-ballot virtual election plus the top per-phase/per-message
# step and crypto distributions (examples/profile.rs --json writes
# bench_check-compatible rows, already wrapped as an array).
echo "== recording profile (1k ballots) -> BENCH_profile.json"
cargo run --release --example profile -- --ballots 1000 --json BENCH_profile.json

echo "== done: BENCH_micro.json BENCH_setup.json BENCH_load.json BENCH_profile.json"
