//! Byzantine fault-tolerance integration tests: elections complete with
//! exact tallies while `fv` vote collectors misbehave in various ways
//! (§III-C threat model, §IV-A/B liveness and safety), all built through
//! the `ElectionBuilder` facade.

use ddemos_harness::adversary::byzantine_prefix;
use ddemos_harness::{ElectionBuilder, ElectionParams, NetworkProfile, PartId, VcBehavior};
use std::time::Duration;

fn run_with_behaviors(behaviors: Vec<VcBehavior>, num_vc: usize, votes: &[usize]) -> Vec<u64> {
    let params = ElectionParams::new(
        "byz-test",
        votes.len() as u64 + 1,
        2,
        num_vc,
        3,
        5,
        3,
        0,
        600_000,
    )
    .unwrap();
    let election = ElectionBuilder::new(params)
        .seed(0xB12)
        .vc_behaviors(behaviors)
        .build()
        .expect("election builds");
    let voting = election.voting().patience(Duration::from_secs(10));
    for (i, &option) in votes.iter().enumerate() {
        voting
            .cast(i, option)
            .expect("honest voter obtains a receipt");
    }
    let report = election.finish().expect("pipeline completes");
    let tally = report.result.expect("tally published").tally;
    election.shutdown();
    tally
}

#[test]
fn crashed_collector_does_not_block_votes_or_tally() {
    let tally = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::Crashed),
        4,
        &[0, 1, 0, 1, 0],
    );
    assert_eq!(tally, vec![3, 2]);
}

#[test]
fn corrupt_share_collector_is_harmless() {
    // Corrupted receipt shares fail the EA signature check at honest
    // receivers; receipts still reconstruct from the honest quorum.
    let tally = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::CorruptShares),
        4,
        &[1, 1, 0],
    );
    assert_eq!(tally, vec![1, 2]);
}

#[test]
fn withholding_collector_is_harmless() {
    let tally = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::WithholdShares),
        4,
        &[0, 0, 1],
    );
    assert_eq!(tally, vec![2, 1]);
}

#[test]
fn consensus_inverter_cannot_corrupt_the_vote_set() {
    // A Byzantine node entering vote-set consensus with inverted opinions
    // cannot flip any ballot whose status the honest quorum agrees on.
    let tally = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::ConsensusInverter),
        4,
        &[1, 0, 1, 1],
    );
    assert_eq!(tally, vec![1, 3]);
}

#[test]
fn seven_node_cluster_with_two_byzantine() {
    let mut behaviors = vec![VcBehavior::Crashed, VcBehavior::CorruptShares];
    behaviors.resize(7, VcBehavior::Honest);
    let tally = run_with_behaviors(behaviors, 7, &[0, 1, 1]);
    assert_eq!(tally, vec![1, 2]);
}

#[test]
fn equivocal_endorser_cannot_enable_double_voting() {
    // One Byzantine endorser signing everything is not enough to form a
    // second UCERT (quorum needs Nv−fv = 3 signers; honest nodes endorse
    // at most one code per ballot).
    let params = ElectionParams::new("equiv", 2, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(7)
        .vc_behaviors(byzantine_prefix(4, VcBehavior::EquivocalEndorser))
        .build()
        .expect("election builds");

    // Voter casts code for option 0 via part A.
    let voting = election.voting().patience(Duration::from_secs(10));
    voting
        .cast_with_part(0, 0, PartId::A)
        .expect("first vote succeeds");

    // An attacker who stole the other part's code cannot get it recorded.
    let thief = election.voting().patience(Duration::from_secs(3));
    let outcome = thief.cast_with_part(0, 1, PartId::B);
    assert!(
        outcome.is_err(),
        "second code on the same ballot must not be recorded"
    );

    let report = election.finish().expect("pipeline completes");
    let result = report.result.expect("tally published");
    assert_eq!(result.ballots_counted, 1);
    assert_eq!(result.tally, vec![1, 0]);
    election.shutdown();
}

#[test]
fn message_loss_is_survived_by_retransmission_free_quorums() {
    // 2% uniform loss: quorums of Nv−fv plus voter patience absorb it.
    let params = ElectionParams::new("lossy", 4, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(3)
        .network(NetworkProfile::lan().with_drop(0.02))
        .build()
        .expect("election builds");
    let voting = election.voting().patience(Duration::from_secs(2));
    let mut ok = 0;
    for i in 0..3usize {
        if voting.cast(i, 0).is_ok() {
            ok += 1;
        }
    }
    assert!(ok >= 2, "most votes should land despite loss (got {ok})");
    election.shutdown();
}

#[test]
fn byzantine_trustee_zero_cannot_block_the_audit() {
    // Trustee 0 — always inside the first `h_t` posts a replica looks at —
    // posts one wrong ZK response share, validly signed. With the four
    // honest posts also on the board, every replica must still publish
    // the result *and* the ZK responses of every used part.
    let params = ElectionParams::new("byz-trustee", 4, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(0xB13)
        .build()
        .expect("election builds");
    let voting = election.voting().patience(Duration::from_secs(10));
    for (ballot, option) in [(0, 1), (1, 0), (2, 1)] {
        voting.cast(ballot, option).expect("receipt");
    }
    election.close().expect("polls close");

    let snapshot = election.snapshot().expect("majority snapshot");
    for init in &election.setup.trustee_inits {
        let trustee = ddemos_trustee::Trustee::new(init.clone());
        let (mut post, mut sig) = trustee.produce_post(&snapshot).expect("post");
        if init.index == 0 {
            post.zk[1].rows[0][1][0] += ddemos_crypto::field::Scalar::ONE;
            sig = init
                .signing_key
                .sign(&ddemos_bb::trustee_post_digest(&post));
        }
        let post = std::sync::Arc::new(post);
        for bb in election.bb_nodes() {
            bb.submit_trustee_post(post.clone(), &sig)
                .expect("validly signed post is accepted");
        }
    }

    // The facade's own trustees post again (first post per trustee wins,
    // so trustee 0 stays Byzantine) and the result is majority-read.
    let result = election.tally().expect("result published");
    assert_eq!(result.tally, vec![1, 2]);
    for bb in election.bb_nodes() {
        let snap = bb.read();
        assert_eq!(snap.result.as_ref(), Some(&result));
        assert_eq!(snap.zk_responses.len(), 3, "one used part per vote");
    }
    let audit = election.audit().expect("audit runs");
    assert!(audit.ok(), "audit failed: {:?}", audit.failures);
    election.shutdown();
}

#[test]
fn concurrent_trustee_fan_out_leaves_the_replicas_identical() {
    // In real time `tally()` feeds each replica from its own thread; the
    // replicas must end up exactly where one serial feeder leaves them.
    let params = ElectionParams::new("fan-out", 5, 3, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(0xB14)
        .build()
        .expect("election builds");
    let voting = election.voting().patience(Duration::from_secs(10));
    for (ballot, option) in [(0, 2), (1, 0), (2, 2), (3, 1)] {
        voting.cast(ballot, option).expect("receipt");
    }
    let report = election.finish().expect("pipeline completes");
    assert!(report.verified(), "audit failed");
    assert_eq!(report.result.expect("tally").tally, vec![1, 1, 2]);
    let boards: Vec<_> = election.bb_nodes().iter().map(|bb| bb.read()).collect();
    for board in &boards[1..] {
        assert_eq!(board.digest(), boards[0].digest());
        assert_eq!(board.openings, boards[0].openings);
        assert_eq!(board.zk_responses, boards[0].zk_responses);
        assert_eq!(board.tally_opening, boards[0].tally_opening);
    }
    election.shutdown();
}
