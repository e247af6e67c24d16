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
//! Each row is the median of five runs, the thread counts alternating
//! run by run (1, hw, 1, hw, …) so that a slow spell of the host falls on
//! both; the quartiles are printed beside it. One more single-thread run
//! of each full case, with the profiling hook on, prints EA set-up's
//! stage split (`ea.setup_ns`: `vc_rows` / `walk` / `multiply` /
//! `assemble`), tagged with the SHA-256 and field backends the walk and
//! the multiplications ran on.
//!
//! `--test` (as passed by `cargo bench -- --test`) smoke-runs a 50-ballot
//! VC-only setup (5 and 1 ballots for the full ones) once per thread
//! count. `DD_SETUP_BALLOTS` overrides the VC-only electorate size (the
//! full cases take a tenth and a fiftieth of it); `DDEMOS_BENCH_JSON`
//! appends one JSON line per row.

use criterion::{is_test_mode, record_json};
use ddemos_ea::{ElectionAuthority, SetupProfile};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::ElectionParams;
use std::time::Instant;

/// Timed runs per row.
const RUNS: usize = 5;

/// The stages of `ea.setup_ns`, in the order a ballot passes them.
const STAGES: [&str; 4] = ["vc_rows", "walk", "multiply", "assemble"];

/// The first quartile, the median and the third quartile of `samples`.
fn quartiles(mut samples: Vec<u64>) -> [u64; 3] {
    samples.sort_unstable();
    // The nearest rank: of five samples, the second, third and fourth.
    let last = samples.len() - 1;
    [1, 2, 3].map(|q| samples[(last * q + 2) / 4])
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One single-thread set-up with the profiling hook on: the total of each
/// `ea.setup_ns` stage.
fn stage_split(params: &ElectionParams, profile: SetupProfile) -> [u64; 4] {
    let rec = ddemos_obs::Recorder::wall();
    ddemos_obs::install_global(rec.clone());
    ElectionAuthority::new(params.clone(), 11).setup_with(profile, &Pool::new(1));
    ddemos_obs::clear_global();
    let snap = rec.snapshot();
    STAGES.map(|stage| {
        snap.hists
            .get(&ddemos_obs::metric_key("ea.setup_ns", "", stage))
            .map_or(0, |h| h.total_ns())
    })
}

fn main() {
    let ballots: u64 = if is_test_mode() {
        50
    } else {
        std::env::var("DD_SETUP_BALLOTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000)
    };
    let runs = if is_test_mode() { 1 } else { RUNS };
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    if hw_threads > 1 {
        thread_counts.push(hw_threads);
    }
    println!(
        "EA setup, Nv=4, Nt=3, ht=2 (hardware threads: {hw_threads}; sha256 {}, field arithmetic {})",
        ddemos_crypto::sha256::backend(),
        ddemos_crypto::curve::backend()
    );
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
        let mut samples = vec![Vec::with_capacity(runs); thread_counts.len()];
        for _ in 0..runs {
            for (&threads, samples) in thread_counts.iter().zip(&mut samples) {
                let ea = ElectionAuthority::new(params.clone(), 11);
                let pool = Pool::new(threads);
                let t0 = Instant::now();
                let out = ea.setup_with(profile, &pool);
                samples.push(t0.elapsed().as_nanos() as u64);
                assert_eq!(out.ballots.len(), ballots as usize);
            }
        }
        let mut baseline_ns = 0u64;
        for (&threads, samples) in thread_counts.iter().zip(samples) {
            let min = samples.iter().copied().min().unwrap_or(0);
            let mean = samples.iter().sum::<u64>() / samples.len() as u64;
            let [q1, median, q3] = quartiles(samples);
            if threads == 1 {
                baseline_ns = median;
            }
            let speedup = baseline_ns as f64 / median.max(1) as f64;
            println!(
                "{name} {ballots} ballots, threads={threads:<2} {:>10.3} ms  (quartiles {:.3}–{:.3} ms over {runs} runs; {:.0} us/ballot, {speedup:.2}x vs 1 thread)",
                ms(median),
                ms(q1),
                ms(q3),
                median as f64 / 1e3 / ballots as f64,
            );
            if !is_test_mode() {
                record_json(
                    &format!("{name} {ballots} ballots threads={threads} hw={hw_threads}"),
                    median,
                    mean,
                    min,
                    runs,
                );
            }
        }
        if profile == SetupProfile::Full {
            let split = stage_split(&params, profile);
            let stages: Vec<String> = STAGES
                .iter()
                .zip(split)
                .map(|(stage, ns)| format!("{stage} {:.3} ms", ms(ns)))
                .collect();
            println!(
                "{name} {ballots} ballots, threads=1, ea.setup_ns: {}",
                stages.join(", ")
            );
        }
    }
}
