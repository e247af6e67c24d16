//! Figure 5c: duration of every system phase versus the number of ballots
//! cast — vote collection, vote-set consensus, push-to-BB + encrypted
//! tally, and result publication.
//!
//! Paper setting: 4 VC nodes, n = 200 000, m = 4, casting 50k…200k
//! ballots. Expected shape: vote collection dominates; consensus next;
//! the two BB phases grow linearly but stay comparatively small.
//!
//! The two middle columns end at board-visible milestones (the vote set,
//! then the challenge, each on a BB majority); code decryption usually
//! falls in the first, so they are comparable neither with the paper's
//! split nor with runs that took the first from the collectors' stamps.

use ddemos_bench::votes_per_point;
use ddemos_harness::{ElectionBuilder, NetworkProfile, Workload};
use ddemos_protocol::ElectionParams;
use std::time::Duration;

fn main() {
    let base = votes_per_point(150, 50_000);
    let steps: Vec<u64> = (1..=4).map(|i| base * i).collect();
    println!("# Fig 5c — phase durations vs ballots cast (4 VC, m=4, full pipeline)");
    println!(
        "# {:>8} {:>14} {:>18} {:>22} {:>16}",
        "cast", "collection(s)", "vote-set-cons(s)", "push-BB+enc-tally(s)", "publish(s)"
    );
    for &cast in &steps {
        // The election window closes right after the workload finishes; all
        // n ballots are cast.
        let params =
            ElectionParams::new(&format!("fig5c-{cast}"), cast, 4, 4, 3, 5, 3, 0, 3_600_000)
                .expect("params");
        let election = ElectionBuilder::new(params)
            .network(NetworkProfile::lan())
            .seed(0x5C + cast)
            .build()
            .expect("election builds");
        let workload = Workload {
            concurrency: 40,
            total_votes: cast,
            first_ballot: 0,
            patience: Duration::from_secs(30),
            seed: 0x5C,
        };
        election.voting().run(&workload);
        let report = election.finish().expect("pipeline completes");
        let result = report.result.as_ref().expect("tally published");
        assert_eq!(result.ballots_counted, cast);
        let timings = report.timings;
        println!(
            "  {:>8} {:>14.2} {:>18.2} {:>22.2} {:>16.2}",
            cast,
            timings.vote_collection.as_secs_f64(),
            timings.vote_set_consensus.as_secs_f64(),
            timings.push_to_bb_and_tally.as_secs_f64(),
            timings.publish_result.as_secs_f64(),
        );
        election.shutdown();
    }
}
