//! Shared helpers for the figure-regeneration benchmarks.
//!
//! Every bench target prints the same series the corresponding paper
//! figure plots. Default parameters are scaled to a small CI box: `DD_FULL=1`
//! runs at paper scale (votes and concurrency), and `DD_VOTES` overrides
//! the votes cast per point.

use ddemos_harness::{ElectionBuilder, ElectionParams, NetworkProfile, StoreKind, Workload};
use std::time::Duration;

/// True when paper-scale parameters were requested.
pub fn full_scale() -> bool {
    std::env::var("DD_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Votes cast per experiment point: `DD_VOTES` when set, else the
/// default for the scale. A `DD_VOTES` that is not a positive integer
/// ends the process with a message naming it.
pub fn votes_per_point(default_small: u64, full: u64) -> u64 {
    match std::env::var_os("DD_VOTES") {
        Some(raw) => match raw.to_str().and_then(|v| v.parse().ok()) {
            Some(votes) if votes > 0 => votes,
            _ => {
                eprintln!(
                    "DD_VOTES={}: expected a positive number of votes",
                    raw.to_string_lossy()
                );
                std::process::exit(2);
            }
        },
        None if full_scale() => full,
        None => default_small,
    }
}

/// A paper concurrency level at the run's scale: as is under `DD_FULL=1`,
/// ÷10 otherwise.
pub fn concurrency(paper: usize) -> usize {
    if full_scale() {
        paper
    } else {
        (paper / 10).max(1)
    }
}

/// The paper's Fig 4 concurrency levels, scaled by [`concurrency`].
pub fn concurrency_levels() -> Vec<usize> {
    [500, 1000, 1500, 2000].map(concurrency).to_vec()
}

/// The VC cluster sizes of Fig 4.
pub const VC_SIZES: [usize; 5] = [4, 7, 10, 13, 16];

/// One vote-collection experiment point of Fig 4/5a/5b.
///
/// Init data for the ballots actually cast is materialized up front (as
/// in the paper, where the EA generates everything offline); the
/// registered electorate `num_ballots` can be far larger — it sizes the
/// storage latency model, as a database holding 250M rows of which 200k
/// are touched.
#[derive(Clone, Debug)]
pub struct Point {
    /// Number of VC nodes.
    pub num_vc: usize,
    /// Number of options `m`.
    pub num_options: usize,
    /// Registered electorate size `n`.
    pub num_ballots: u64,
    /// Concurrent clients.
    pub concurrency: usize,
    /// Votes to cast.
    pub votes: u64,
    /// Network profile (LAN / WAN).
    pub network: NetworkProfile,
    /// Ballot store backing each VC node.
    pub store: StoreKind,
    /// Seed.
    pub seed: u64,
}

/// Runs one point on a VC-only election, prints a paper-style row and
/// tears the cluster down.
pub fn run_point(label: &str, point: &Point) {
    // A long election window: the workload finishes well before Tend.
    let params = ElectionParams::new(
        &format!("bench-{}-{}", point.num_vc, point.seed),
        point.num_ballots,
        point.num_options,
        point.num_vc,
        1,
        1,
        1,
        0,
        3_600_000,
    )
    .expect("benchmark parameters");
    let election = ElectionBuilder::new(params)
        .seed(point.seed)
        .network(point.network.clone())
        .store(point.store)
        .vc_only()
        .materialize_first(point.votes)
        .build()
        .expect("benchmark election builds");
    let workload = Workload {
        concurrency: point.concurrency,
        total_votes: point.votes,
        first_ballot: 0,
        patience: Duration::from_secs(30),
        seed: point.seed ^ 0x57_4C,
    };
    let stats = election.voting().run(&workload);
    let messages = election.report().net.sent;
    election.shutdown();
    println!(
        "{label} nv={:2} cc={:4} votes={:5} -> throughput {:8.1} ops/s, mean latency {:7.2} ms, p95 {:7.2} ms, msgs {}",
        point.num_vc,
        point.concurrency,
        stats.votes_cast,
        stats.throughput(),
        stats.mean_latency.as_secs_f64() * 1e3,
        stats.p95_latency.as_secs_f64() * 1e3,
        messages,
    );
}
