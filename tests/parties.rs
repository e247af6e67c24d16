//! Every party writes its own data to the board: collectors their vote
//! sets and `msk` shares, trustee nodes their posts. So the result is
//! published without the coordinator, with up to `N_t − h_t` trustees
//! down, and with a collector cut off from every replica; with one more
//! trustee down nothing is published and `tally()` times out cleanly,
//! while one more trustee whose post the board refuses makes `tally()`
//! name that refusal at once; and trustees still waiting for the board
//! never hold up a shutdown.

use ddemos_bb::MajorityReader;
use ddemos_crypto::field::Scalar;
use ddemos_crypto::schnorr::SigningKey;
use ddemos_harness::{
    Auditor, Election, ElectionBuilder, ElectionError, ElectionParams, NodeId, COORDINATOR,
};
use ddemos_protocol::ballot::AuditInfo;
use ddemos_trustee::TrusteeError;
use std::time::{Duration, Instant};

const NUM_BB: usize = 3;
const NUM_TRUSTEES: u32 = 5;
const THRESHOLD: u32 = 3;
const CASTS: &[(usize, usize)] = &[(0, 1), (1, 0), (2, 1), (3, 1)];
const TALLY: [u64; 2] = [1, 3];

fn builder(label: &str, seed: u64) -> ElectionBuilder {
    let params = ElectionParams::new(
        label,
        6,
        2,
        4,
        NUM_BB,
        NUM_TRUSTEES as usize,
        THRESHOLD as usize,
        0,
        60_000,
    )
    .unwrap();
    ElectionBuilder::new(params).seed(seed)
}

fn election(label: &str, seed: u64, virtual_time: bool) -> Election {
    let builder = builder(label, seed);
    let builder = if virtual_time {
        builder.virtual_time()
    } else {
        builder
    };
    builder.build().expect("election builds")
}

fn replicas() -> Vec<NodeId> {
    (0..NUM_BB as u32).map(NodeId::bb).collect()
}

/// Casts [`CASTS`], returning the voters' audit data.
fn cast(election: &Election) -> Vec<AuditInfo> {
    let voting = election.voting();
    CASTS
        .iter()
        .map(|&(ballot, option)| voting.cast(ballot, option).expect("receipt").audit)
        .collect()
}

/// The full pipeline with `faults` in place before the polls close.
fn finish_with(seed: u64, faults: impl FnOnce(&Election)) {
    let election = election("parties", seed, true);
    cast(&election);
    faults(&election);
    let report = election.finish().expect("pipeline completes");
    assert_eq!(report.tally(), Some(&TALLY[..]));
    assert!(report.verified(), "audit failed");
    election.shutdown();
}

#[test]
fn the_result_is_published_after_the_coordinator_crashes() {
    let election = election("no-coordinator", 21, true);
    let audits = cast(&election);
    election.close_polls();
    // The coordinator's closes die with it: the collectors close on their
    // own clocks at the end of the polls.
    election.network().crash(COORDINATOR);
    let reader = MajorityReader::remote(election.client_endpoint(), NUM_BB)
        .with_clock(election.clock().clone());
    let board = reader
        .read_until(Duration::from_secs(600), |board| board.result.is_some())
        .expect("a result is published");
    let result = board.result.as_ref().expect("result");
    assert_eq!(result.tally, TALLY);
    let audit = Auditor::new(&election.setup.bb_init, &board).verify_delegated(&audits);
    assert!(audit.ok(), "audit failed: {:?}", audit.failures);
    election.shutdown();
}

#[test]
fn the_result_is_published_with_n_t_minus_h_t_trustees_down() {
    finish_with(22, |election| {
        for i in 0..NUM_TRUSTEES - THRESHOLD {
            election.network().crash(NodeId::trustee(i));
        }
    });
}

#[test]
fn one_more_trustee_down_publishes_nothing_and_tally_times_out() {
    let election = election("too-few-trustees", 23, true);
    cast(&election);
    for i in 0..=NUM_TRUSTEES - THRESHOLD {
        election.network().crash(NodeId::trustee(i));
    }
    election.close().expect("polls close");
    assert!(matches!(
        election.tally(),
        Err(ElectionError::BbTimeout("result"))
    ));
    assert!(election.snapshot().expect("board").result.is_none());
    election.shutdown();
}

#[test]
fn one_more_trustee_refused_fails_the_tally_at_once() {
    // Trustees 0..=N_t − h_t sign with keys the board does not know.
    let election = builder("refused-trustees", 26)
        .virtual_time()
        .corrupt_setup(|setup| {
            for init in &mut setup.trustee_inits[..=(NUM_TRUSTEES - THRESHOLD) as usize] {
                init.signing_key = SigningKey::from_scalar(Scalar::from_u64(7 + init.index as u64));
            }
        })
        .build()
        .expect("election builds");
    cast(&election);
    election.close().expect("polls close");
    let started = election.clock().now_ns();
    assert!(matches!(
        election.tally(),
        Err(ElectionError::TrusteesFailed(TrusteeError::PostRefused {
            accepted: 0
        }))
    ));
    let waited = Duration::from_nanos(election.clock().now_ns() - started);
    assert!(waited < Duration::from_secs(60), "tally waited {waited:?}");
    assert!(election.snapshot().expect("board").result.is_none());
    election.shutdown();
}

#[test]
fn the_result_is_published_with_a_collector_cut_off_from_the_board() {
    finish_with(24, |election| {
        election.network().partition([NodeId::vc(3)], replicas());
    });
}

/// The polls are closed but every collector is down, so no vote set
/// reaches the board and every trustee node is still waiting for it.
fn shutdown_with_waiting_trustees(virtual_time: bool) {
    let election = election("waiting-trustees", 25, virtual_time);
    for i in 0..4 {
        election.network().crash(NodeId::vc(i));
    }
    election.close_polls();
    election.sleep(Duration::from_millis(300));
    assert!(election.snapshot().expect("board").vote_set.is_none());
    let started = Instant::now();
    drop(election);
    // The coordinator's shutdown patience (1 s), plus one second.
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn shutdown_does_not_wait_on_trustees_in_virtual_time() {
    shutdown_with_waiting_trustees(true);
}

#[test]
fn shutdown_does_not_wait_on_trustees_in_real_time() {
    shutdown_with_waiting_trustees(false);
}
