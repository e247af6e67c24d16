//! Figure 5b: vote-collection throughput versus the number of election
//! options `m` ∈ {2 … 10}.
//!
//! Paper setting: n = 200 000 ballots, 400 concurrent clients, 4 VC nodes.
//! Expected shape: approximately flat — the only extra per-vote work as m
//! grows is hash checks during vote-code validation.

use ddemos_bench::{concurrency, run_point, votes_per_point, Point};
use ddemos_harness::{NetworkProfile, StoreKind};

fn main() {
    let votes = votes_per_point(200, 10_000);
    let cc = concurrency(400);
    println!("# Fig 5b — throughput vs #options m, 4 VC, cc={cc}");
    for m in [2usize, 4, 6, 8, 10] {
        let point = Point {
            num_vc: 4,
            num_options: m,
            num_ballots: votes * 2,
            concurrency: cc,
            votes,
            network: NetworkProfile::lan(),
            store: StoreKind::Memory,
            seed: 0x5B + m as u64,
        };
        run_point(&format!("fig5b m={m:2}"), &point);
    }
}
