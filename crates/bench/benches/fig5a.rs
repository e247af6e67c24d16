//! Figure 5a: vote-collection throughput versus total electorate size
//! `n` ∈ {50M … 250M}, disk-backed ballot store (the 2012 US voting
//! population was 235M).
//!
//! Paper setting: referendum (m = 2), 4 VC nodes, 400 concurrent clients,
//! 200 000 ballots cast. Ballots here come from the materialized cast
//! range behind the calibrated index/cache latency model
//! (`StoreKind::Latency`, DESIGN.md §2); expected shape: slow throughput
//! decline as n grows five-fold.

use ddemos_bench::{concurrency, run_point, votes_per_point, Point};
use ddemos_harness::{NetworkProfile, StorageModel, StoreKind};

fn main() {
    let votes = votes_per_point(150, 200_000);
    let cc = concurrency(400);
    println!("# Fig 5a — throughput vs electorate size n (disk model), m=2, 4 VC, cc={cc}");
    let model = StorageModel::default();
    for n_millions in [50u64, 100, 150, 200, 250] {
        let n = n_millions * 1_000_000;
        println!(
            "# modelled lookup latency at n={}M: {:?}",
            n_millions,
            model.lookup_latency(n)
        );
        let point = Point {
            num_vc: 4,
            num_options: 2,
            num_ballots: n,
            concurrency: cc,
            votes,
            network: NetworkProfile::lan(),
            store: StoreKind::Latency(model),
            seed: 0x5A + n_millions,
        };
        run_point("fig5a", &point);
    }
}
