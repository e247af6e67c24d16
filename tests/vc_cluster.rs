//! Focused VC-cluster tests: Algorithm 1's guarantees at the subsystem
//! level (UCERT uniqueness under racing codes, receipt reconstruction,
//! vote-set consensus with faults, RECOVER back-fill), with the cluster
//! stood up through the `ElectionBuilder` facade and votes injected as
//! raw protocol messages.

use ddemos_harness::{Election, ElectionBuilder, ElectionParams, NetworkProfile, VcBehavior};
use ddemos_protocol::messages::{Msg, RejectReason, VoteOutcome};
use ddemos_protocol::{NodeId, SerialNo};
use std::time::Duration;

mod common;

fn start_cluster(
    num_vc: usize,
    num_ballots: u64,
    behaviors: &[VcBehavior],
    profile: NetworkProfile,
) -> Election {
    let params =
        ElectionParams::new("vc-cluster", num_ballots, 2, num_vc, 1, 1, 1, 0, 3_600_000).unwrap();
    let mut builder = ElectionBuilder::new(params)
        .seed(77)
        .vc_only()
        .network(profile);
    for (i, &behavior) in behaviors.iter().enumerate() {
        builder = builder.adversary(NodeId::vc(i as u32), behavior);
    }
    builder.build().expect("cluster builds")
}

/// Sends one raw VOTE message to a specific node and waits for the reply —
/// bypassing the `Voter` client to exercise the protocol surface directly.
fn raw_vote(
    election: &Election,
    to_vc: u32,
    serial: SerialNo,
    code: ddemos_crypto::votecode::VoteCode,
) -> Option<VoteOutcome> {
    let endpoint = election.client_endpoint();
    let request_id = u64::from(endpoint.id().index);
    endpoint.send(
        NodeId::vc(to_vc),
        Msg::Vote {
            request_id,
            serial,
            vote_code: code,
        },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        let Ok(env) = endpoint.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        if let Msg::VoteReply {
            request_id: rid,
            outcome,
            ..
        } = env.msg
        {
            if rid == request_id {
                return Some(outcome);
            }
        }
    }
    None
}

#[test]
fn racing_codes_on_one_ballot_yield_at_most_one_recorded_code() {
    // Two clients race *different* codes of the same ballot at different
    // responders. UCERT uniqueness (quorum intersection) guarantees at
    // most one wins; the other is rejected or starves.
    let election = start_cluster(4, 1, &[], NetworkProfile::lan());
    let ballot = election.setup.ballots[0].clone();
    let code_a = ballot.parts[0].lines[0].vote_code;
    let code_b = ballot.parts[1].lines[1].vote_code;
    let (r1, r2) = std::thread::scope(|s| {
        let e = &election;
        let h1 = s.spawn(move || raw_vote(e, 0, SerialNo(0), code_a));
        let h2 = s.spawn(move || raw_vote(e, 1, SerialNo(0), code_b));
        (h1.join().unwrap(), h2.join().unwrap())
    });
    let receipts = [r1, r2]
        .iter()
        .filter(|r| matches!(r, Some(VoteOutcome::Receipt(_))))
        .count();
    assert!(
        receipts <= 1,
        "two different codes must never both be recorded"
    );
    // Finish: close polls, check the vote set has at most one entry and
    // all four collectors finalize the set the board published.
    let published = election.close().expect("vote sets finalize");
    assert!(published.len() <= 1);
    let finalized = common::finalized_at_least(&election, 4);
    assert_eq!(finalized.len(), 4, "every collector finalizes");
    for f in &finalized {
        assert_eq!(f.vote_set, published, "agreement");
    }
    election.shutdown();
}

#[test]
fn vote_set_consensus_agrees_with_a_crashed_node() {
    let election = start_cluster(4, 3, &[VcBehavior::Crashed], NetworkProfile::lan());
    // Cast two of three ballots through honest nodes.
    for (i, serial) in [0u64, 1].iter().enumerate() {
        let ballot = &election.setup.ballots[*serial as usize];
        let code = ballot.parts[0].lines[0].vote_code;
        let outcome = raw_vote(&election, 1 + i as u32, SerialNo(*serial), code);
        assert!(
            matches!(outcome, Some(VoteOutcome::Receipt(_))),
            "{outcome:?}"
        );
    }
    // close() waits for the set on the board, which publishes it on
    // f_v + 1 = 2 identical copies; each of the three live collectors
    // finalizes that set.
    let published = election.close().expect("vote sets finalize");
    assert_eq!(published.len(), 2, "both receipts honoured");
    let finalized = common::finalized_at_least(&election, 3);
    assert_eq!(finalized.len(), 3, "every live collector finalizes");
    for f in &finalized {
        assert_ne!(f.node_index, 0, "the crashed collector finalized");
        assert_eq!(f.vote_set, published);
    }
    election.shutdown();
}

#[test]
fn invalid_code_rejected_and_unknown_serial_rejected() {
    let election = start_cluster(4, 1, &[], NetworkProfile::lan());
    let bogus = ddemos_crypto::votecode::VoteCode([0xEE; 20]);
    match raw_vote(&election, 0, SerialNo(0), bogus) {
        Some(VoteOutcome::Rejected(RejectReason::InvalidVoteCode)) => {}
        other => panic!("expected InvalidVoteCode, got {other:?}"),
    }
    match raw_vote(&election, 0, SerialNo(99), bogus) {
        Some(VoteOutcome::Rejected(RejectReason::UnknownSerial)) => {}
        other => panic!("expected UnknownSerial, got {other:?}"),
    }
    election.shutdown();
}

#[test]
fn receipt_under_wan_latency() {
    let election = start_cluster(4, 1, &[], NetworkProfile::wan());
    let ballot = election.setup.ballots[0].clone();
    let code = ballot.parts[1].lines[0].vote_code;
    let t0 = std::time::Instant::now();
    let outcome = raw_vote(&election, 2, SerialNo(0), code);
    let elapsed = t0.elapsed();
    let Some(VoteOutcome::Receipt(r)) = outcome else {
        panic!("no receipt: {outcome:?}")
    };
    assert_eq!(r, ballot.parts[1].lines[0].receipt);
    // At least 3 one-way 25ms hops (endorse round + share round).
    assert!(elapsed >= Duration::from_millis(75), "{elapsed:?}");
    election.shutdown();
}

#[test]
fn sixteen_node_cluster_collects_votes() {
    let election = start_cluster(16, 2, &[], NetworkProfile::lan());
    for serial in 0..2u64 {
        let ballot = &election.setup.ballots[serial as usize];
        let code = ballot.parts[0].lines[1].vote_code;
        let outcome = raw_vote(&election, (serial % 16) as u32, SerialNo(serial), code);
        assert!(
            matches!(outcome, Some(VoteOutcome::Receipt(_))),
            "{outcome:?}"
        );
    }
    election.shutdown();
}
