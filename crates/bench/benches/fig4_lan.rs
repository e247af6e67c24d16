//! Figures 4a + 4b: vote-collection latency and throughput versus the
//! number of VC nodes on a LAN, for several concurrency levels.
//!
//! Paper setting: n = 200 000 ballots, m = 4 options, Nv ∈ {4..16},
//! cc ∈ {500, 1000, 1500, 2000}, Gigabit LAN. Expected shape: latency grows
//! roughly linearly with Nv and with cc; throughput *drops* as Nv grows
//! (the O(Nv²) endorsement/share traffic), steepest from 4→7.

use ddemos_bench::{concurrency_levels, run_point, votes_per_point, Point, VC_SIZES};
use ddemos_harness::{NetworkProfile, StoreKind};

fn main() {
    let votes = votes_per_point(240, 10_000);
    println!("# Fig 4a/4b — latency & throughput vs #VC (LAN), m=4");
    println!("# paper: n=200k, cc∈{{500,1000,1500,2000}}; here votes/point={votes}");
    for cc in concurrency_levels() {
        for nv in VC_SIZES {
            let point = Point {
                num_vc: nv,
                num_options: 4,
                num_ballots: votes * 2,
                concurrency: cc,
                votes,
                network: NetworkProfile::lan(),
                store: StoreKind::Memory,
                seed: 0x4A41 + nv as u64,
            };
            run_point("fig4ab[LAN]", &point);
        }
        println!();
    }
}
