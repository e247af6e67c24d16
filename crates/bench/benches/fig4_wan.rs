//! Figures 4d + 4e: vote-collection latency and throughput versus the
//! number of VC nodes on an emulated WAN (uniform 25 ms inter-VC latency,
//! as the paper injects with netem).
//!
//! Expected shape: same ordering as the LAN plots — the protocol is
//! pipelined and concurrent, so throughput holds up despite the added
//! inter-VC latency; per-vote latency gains a few round trips.

use ddemos_bench::{concurrency_levels, run_point, votes_per_point, Point, VC_SIZES};
use ddemos_harness::{NetworkProfile, StoreKind};

fn main() {
    let votes = votes_per_point(240, 10_000);
    println!("# Fig 4d/4e — latency & throughput vs #VC (WAN, 25ms inter-VC), m=4");
    println!("# paper: n=200k, cc∈{{500,1000,1500,2000}}; here votes/point={votes}");
    for cc in concurrency_levels() {
        for nv in VC_SIZES {
            let point = Point {
                num_vc: nv,
                num_options: 4,
                num_ballots: votes * 2,
                concurrency: cc,
                votes,
                network: NetworkProfile::wan(),
                store: StoreKind::Memory,
                seed: 0x4A44 + nv as u64,
            };
            run_point("fig4de[WAN]", &point);
        }
        println!();
    }
}
