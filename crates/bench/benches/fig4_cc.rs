//! Figures 4c + 4f: vote-collection throughput versus the number of
//! concurrent clients, for each cluster size, on LAN and WAN.
//!
//! Expected shape: near-constant throughput in cc for a fixed Nv
//! (saturation), with curves ordered 4VC > 7VC > 10VC > 13VC > 16VC.

use ddemos_bench::{concurrency, run_point, votes_per_point, Point, VC_SIZES};
use ddemos_harness::{NetworkProfile, StoreKind};

fn main() {
    let votes = votes_per_point(160, 5_000);
    let cc_levels = [400, 1200, 2000].map(concurrency);
    for (name, profile) in [
        ("fig4c[LAN]", NetworkProfile::lan()),
        ("fig4f[WAN]", NetworkProfile::wan()),
    ] {
        println!("# {name} — throughput vs #concurrent clients, m=4");
        for nv in VC_SIZES {
            for &cc in &cc_levels {
                let point = Point {
                    num_vc: nv,
                    num_options: 4,
                    num_ballots: votes * 2,
                    concurrency: cc,
                    votes,
                    network: profile.clone(),
                    store: StoreKind::Memory,
                    seed: 0x4A43 + nv as u64 + cc as u64,
                };
                run_point(name, &point);
            }
            println!();
        }
    }
}
