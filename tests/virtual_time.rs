//! The virtual-time discrete-event runtime: emulated latency must cost no
//! wall clock, timings must be reported in virtual milliseconds, and the
//! acceptance bar — a 4VC/4BB WAN-profile election with a 10k-voter
//! electorate completes in < 5 s of wall time.

use ddemos_harness::{ElectionBuilder, ElectionParams, NetworkProfile, StoreKind};
use std::time::{Duration, Instant};

mod common;

fn params(label: &str, ballots: u64, end_ms: u64) -> ElectionParams {
    ElectionParams::new(label, ballots, 3, 4, 4, 3, 2, 0, end_ms).unwrap()
}

#[test]
fn wan_election_reports_virtual_phase_timings() {
    let election = ElectionBuilder::new(params("vt-wan", 8, 60_000))
        .seed(11)
        .virtual_time()
        .network(NetworkProfile::wan())
        .build()
        .unwrap();
    let wall = Instant::now();
    {
        let voting = election.voting();
        for (ballot, option) in [(0usize, 0usize), (1, 1), (2, 2), (3, 0)] {
            voting.cast(ballot, option).unwrap();
        }
    }
    let report = election.finish().unwrap();
    assert_eq!(report.tally(), Some(&[2, 1, 1][..]));
    assert!(report.verified());
    // Each WAN vote pays ≥ 2x 10ms client hops plus inter-VC rounds of
    // 25ms each: well over 45ms of virtual time per vote.
    assert!(
        report.timings.vote_collection >= Duration::from_millis(4 * 45),
        "virtual vote_collection too small: {:?}",
        report.timings.vote_collection
    );
    // …while the whole run costs almost no wall clock.
    assert!(
        wall.elapsed() < Duration::from_secs(30),
        "wall {:?}",
        wall.elapsed()
    );
    election.shutdown();
}

#[test]
fn voting_window_closes_by_virtual_end_time() {
    // No explicit close_polls: nodes must end voting when their virtual
    // clocks pass T_end, and the window jump must cost no wall time.
    let election = ElectionBuilder::new(params("vt-window", 6, 30_000))
        .seed(12)
        .virtual_time()
        .network(NetworkProfile::lan())
        .build()
        .unwrap();
    {
        let voting = election.voting();
        voting.cast(0, 1).unwrap();
        voting.cast(1, 2).unwrap();
    }
    // Jump past the end of the voting window.
    let to_end = 31_000u64.saturating_sub(election.now_ms());
    election.sleep(Duration::from_millis(to_end));
    assert!(election.now_ms() >= 30_000);
    // Votes after T_end are rejected.
    let late = election.voting().cast(2, 0);
    assert!(late.is_err(), "vote after T_end must be rejected");
    let report = election.finish().unwrap();
    assert_eq!(report.tally(), Some(&[0, 1, 1][..]));
    election.shutdown();
}

#[test]
fn latency_store_charges_virtual_time() {
    let election = ElectionBuilder::new(params("vt-store", 6, 60_000))
        .seed(13)
        .virtual_time()
        .network(NetworkProfile::instant())
        .store(StoreKind::Latency(ddemos_harness::StorageModel {
            base: Duration::from_millis(20),
            per_level: Duration::ZERO,
            per_sqrt_million: Duration::ZERO,
        }))
        .build()
        .unwrap();
    let wall = Instant::now();
    election.voting().cast(0, 1).unwrap();
    // One vote triggers several store lookups across the cluster; each
    // charges 20 virtual ms on an otherwise zero-latency network.
    assert!(
        election.now_ms() >= 20,
        "store latency not charged: {}ms",
        election.now_ms()
    );
    assert!(wall.elapsed() < Duration::from_secs(10));
    election.shutdown();
}

#[test]
fn bulk_workload_runs_in_virtual_time() {
    use ddemos_harness::Workload;
    let election = ElectionBuilder::new(params("vt-workload", 12, 120_000))
        .seed(15)
        .virtual_time()
        .network(NetworkProfile::wan())
        .vc_only()
        .build()
        .unwrap();
    let wall = Instant::now();
    let stats = election.voting().run(&Workload {
        concurrency: 3,
        total_votes: 12,
        patience: Duration::from_secs(5),
        ..Workload::default()
    });
    assert_eq!(stats.votes_cast, 12);
    assert_eq!(stats.failures, 0);
    // Virtual duration and latencies reflect the WAN profile…
    assert!(stats.duration >= Duration::from_millis(45), "{stats:?}");
    assert!(stats.mean_latency >= Duration::from_millis(40), "{stats:?}");
    // …while wall time stays small.
    assert!(wall.elapsed() < Duration::from_secs(30));
    election.shutdown();
}

/// Acceptance bar from the issue: a 4VC/4BB WAN-profile election with a
/// ≥10k-voter electorate under `virtual_time()` completes in < 5 s wall.
#[test]
fn wan_10k_voter_election_completes_fast() {
    const ELECTORATE: u64 = 10_000;
    const CAST: u64 = 64;
    let election = ElectionBuilder::new(params("vt-10k", ELECTORATE, 600_000))
        .seed(14)
        .virtual_time()
        .network(NetworkProfile::wan())
        .vc_only()
        .store(StoreKind::Virtual)
        .materialize_first(CAST)
        .build()
        .unwrap();
    let wall = Instant::now();
    {
        let voting = election.voting();
        for ballot in 0..CAST as usize {
            voting.cast(ballot, ballot % 3).unwrap();
        }
    }
    // Vote-set consensus runs over the full 10k-serial electorate.
    let published = election.close().unwrap();
    let elapsed = wall.elapsed();
    assert_eq!(published.len(), CAST as usize);
    let finalized = common::finalized_at_least(&election, 3);
    assert!(finalized.len() >= 3, "quorum of finalized vote sets");
    for f in &finalized {
        assert_eq!(f.vote_set, published);
    }
    // The paper-shaped WAN latencies ran entirely in virtual time.
    assert!(
        election.now_ms() >= 100,
        "virtual time advanced: {}ms",
        election.now_ms()
    );
    // The <5s acceptance bound is a release-build property: unoptimized
    // crypto is an order of magnitude slower and would measure the
    // compiler, not the runtime.
    let bound = if cfg!(debug_assertions) {
        Duration::from_secs(120)
    } else {
        Duration::from_secs(5)
    };
    assert!(elapsed < bound, "wall {elapsed:?} (bound {bound:?})");
    election.shutdown();
}
