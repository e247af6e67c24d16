//! EA setup throughput at 1 worker thread vs the machine's hardware
//! threads of the chunking executor — the `BENCH_setup.json` baseline:
//!
//! * `setup/ea` — the VC-only profile of a 10k-ballot election (the
//!   Fig 4/5 precondition: ballots and collector rows, no commitments);
//! * `setup/full m=2`, `setup/full m=5` — the whole set-up an election
//!   needs (commitments, first moves, trustee sharings), on 1000 and
//!   200 ballots: the per-ballot figure the million-ballot estimate in
//!   ROADMAP.md multiplies.
//!
//! `--test` (as passed by `cargo bench -- --test`) smoke-runs a 50-ballot
//! VC-only setup (5 and 1 ballots for the full ones) per thread count.
//! `DD_SETUP_BALLOTS` overrides the VC-only electorate size (the full
//! cases take a tenth and a fiftieth of it); `DDEMOS_BENCH_JSON` appends
//! one JSON line per measurement.

use criterion::{is_test_mode, record_json};
use ddemos_ea::{ElectionAuthority, SetupProfile};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::ElectionParams;
use std::time::Instant;

fn main() {
    let ballots: u64 = if is_test_mode() {
        50
    } else {
        std::env::var("DD_SETUP_BALLOTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000)
    };
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    if hw_threads > 1 {
        thread_counts.push(hw_threads);
    }
    println!("EA setup, Nv=4, Nt=3, ht=2 (hardware threads: {hw_threads})");
    let cases = [
        ("setup/ea", SetupProfile::VcOnly, 2, ballots),
        (
            "setup/full m=2",
            SetupProfile::Full,
            2,
            (ballots / 10).max(1),
        ),
        (
            "setup/full m=5",
            SetupProfile::Full,
            5,
            (ballots / 50).max(1),
        ),
    ];
    for (name, profile, options, ballots) in cases {
        let params = ElectionParams::new("bench-setup", ballots, options, 4, 3, 3, 2, 0, 60_000)
            .expect("valid bench parameters");
        let mut baseline_ns = 0u64;
        for &threads in &thread_counts {
            let ea = ElectionAuthority::new(params.clone(), 11);
            let pool = Pool::new(threads);
            let t0 = Instant::now();
            let out = ea.setup_with(profile, &pool);
            let elapsed = t0.elapsed();
            assert_eq!(out.ballots.len(), ballots as usize);
            let ns = elapsed.as_nanos() as u64;
            if threads == 1 {
                baseline_ns = ns;
            }
            let speedup = baseline_ns as f64 / ns.max(1) as f64;
            println!(
                "{name} {ballots} ballots, threads={threads:<2} {:>10.3} ms  ({:.0} us/ballot, {speedup:.2}x vs 1 thread)",
                elapsed.as_secs_f64() * 1e3,
                elapsed.as_secs_f64() * 1e6 / ballots as f64,
            );
            if !is_test_mode() {
                record_json(
                    &format!("{name} {ballots} ballots threads={threads} hw={hw_threads}"),
                    ns,
                    ns,
                    ns,
                    1,
                );
            }
        }
    }
}
