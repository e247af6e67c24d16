//! Byzantine fault-tolerance integration tests: elections complete with
//! exact tallies while `fv` vote collectors misbehave in various ways
//! (§III-C threat model, §IV-A/B liveness and safety), all built through
//! the `ElectionBuilder` facade.

use ddemos_bb::codec::encode_snapshot;
use ddemos_harness::adversary::byzantine_prefix;
use ddemos_harness::{
    ElectionBuilder, ElectionParams, MetricsSnapshot, NetworkProfile, NodeId, PartId, VcBehavior,
};
use ddemos_protocol::messages::Msg;
use ddemos_protocol::SerialNo;
use std::time::Duration;

/// The acts (dropped inputs; rewritten, dropped or forged outputs) the
/// collectors running `preset` committed: a preset that does nothing
/// fails its test here.
fn acts(metrics: &MetricsSnapshot, preset: &str) -> u64 {
    metrics.counter("vc.adversary_acts", None, Some(preset))
}

fn run_with_behaviors(
    behaviors: Vec<VcBehavior>,
    num_vc: usize,
    votes: &[usize],
) -> (Vec<u64>, MetricsSnapshot) {
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
    let mut builder = ElectionBuilder::new(params).seed(0xB12);
    for (i, behavior) in behaviors.into_iter().enumerate() {
        builder = builder.adversary(NodeId::vc(i as u32), behavior);
    }
    let election = builder.build().expect("election builds");
    let voting = election.voting().patience(Duration::from_secs(10));
    for (i, &option) in votes.iter().enumerate() {
        voting
            .cast(i, option)
            .expect("honest voter obtains a receipt");
    }
    let report = election.finish().expect("pipeline completes");
    let tally = report.result.expect("tally published").tally;
    election.shutdown();
    (tally, report.metrics)
}

#[test]
fn crashed_collector_does_not_block_votes_or_tally() {
    let (tally, metrics) = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::Crashed),
        4,
        &[0, 1, 0, 1, 0],
    );
    assert_eq!(tally, vec![3, 2]);
    assert!(acts(&metrics, "Crashed") > 0);
}

#[test]
fn corrupt_share_collector_is_harmless() {
    // Corrupted receipt shares fail the EA tag check at honest
    // receivers; receipts still reconstruct from the honest quorum.
    let (tally, metrics) = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::CorruptShares),
        4,
        &[1, 1, 0],
    );
    assert_eq!(tally, vec![1, 2]);
    assert!(acts(&metrics, "CorruptShares") > 0);
}

#[test]
fn withholding_collector_is_harmless() {
    let (tally, metrics) = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::WithholdShares),
        4,
        &[0, 0, 1],
    );
    assert_eq!(tally, vec![2, 1]);
    assert!(acts(&metrics, "WithholdShares") > 0);
}

#[test]
fn consensus_inverter_cannot_corrupt_the_vote_set() {
    // A Byzantine node entering vote-set consensus with inverted opinions
    // cannot flip any ballot whose status the honest quorum agrees on.
    let (tally, metrics) = run_with_behaviors(
        byzantine_prefix(4, VcBehavior::ConsensusInverter),
        4,
        &[1, 0, 1, 1],
    );
    assert_eq!(tally, vec![1, 3]);
    assert!(acts(&metrics, "ConsensusInverter") > 0);
}

#[test]
fn seven_node_cluster_with_two_byzantine() {
    let mut behaviors = vec![VcBehavior::Crashed, VcBehavior::CorruptShares];
    behaviors.resize(7, VcBehavior::Honest);
    let (tally, metrics) = run_with_behaviors(behaviors, 7, &[0, 1, 1]);
    assert_eq!(tally, vec![1, 2]);
    assert!(acts(&metrics, "Crashed") > 0);
    assert!(acts(&metrics, "CorruptShares") > 0);
}

#[test]
fn equivocal_endorser_cannot_enable_double_voting() {
    // One Byzantine endorser signing everything is not enough to form a
    // second UCERT (quorum needs Nv−fv = 3 signers; honest nodes endorse
    // at most one code per ballot).
    let params = ElectionParams::new("equiv", 2, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(7)
        .adversary(NodeId::vc(0), VcBehavior::EquivocalEndorser)
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

    // An accomplice posing as the stolen code's responder asks every
    // collector to endorse it: only the equivocator signs.
    let stolen = election.setup.ballots[0]
        .part(PartId::B)
        .line_for_option(1)
        .expect("option 1")
        .vote_code;
    let accomplice = election.network().register(NodeId::vc(4));
    for vc in 0..4 {
        accomplice.send(
            NodeId::vc(vc),
            Msg::Endorse {
                serial: SerialNo(0),
                vote_code: stolen,
            },
        );
    }
    let signed = accomplice
        .recv_timeout(Duration::from_secs(3))
        .expect("the equivocator endorses the stolen code");
    assert_eq!(signed.from, NodeId::vc(0));
    assert!(matches!(signed.msg, Msg::Endorsement { vote_code, .. } if vote_code == stolen));

    let report = election.finish().expect("pipeline completes");
    let result = report.result.expect("tally published");
    assert_eq!(result.ballots_counted, 1);
    assert_eq!(result.tally, vec![1, 0]);
    assert!(acts(&report.metrics, "EquivocalEndorser") > 0);
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
    // posts one wrong ZK response share and one wrong opening share,
    // validly signed. With the four honest posts also on the board, every
    // replica must still publish the result, the ZK responses of every
    // used part and the openings of every other part.
    let params = ElectionParams::new("byz-trustee", 4, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(0xB13)
        .virtual_time()
        .build()
        .expect("election builds");
    // Trustee 0's own node never reaches the board, and the honest nodes
    // reach it only once trustee 0's post is there.
    let net = election.network();
    let replicas: Vec<NodeId> = (0..3).map(NodeId::bb).collect();
    net.crash(NodeId::trustee(0));
    net.partition((1..5).map(NodeId::trustee), replicas);
    let voting = election.voting().patience(Duration::from_secs(10));
    for (ballot, option) in [(0, 1), (1, 0), (2, 1)] {
        voting.cast(ballot, option).expect("receipt");
    }
    election.close().expect("polls close");

    let snapshot = election.snapshot().expect("majority snapshot");
    let init = &election.setup.trustee_inits[0];
    let trustee = ddemos_trustee::Trustee::new(init.clone());
    let (mut post, _) = trustee.produce_post(&snapshot).expect("post");
    post.zk[1].rows[0][1][0] += ddemos_crypto::field::Scalar::ONE;
    post.openings[2].rows[1][0].1 += ddemos_crypto::field::Scalar::ONE;
    let sig = init
        .signing_key
        .sign(&ddemos_protocol::codec::trustee_post_digest(&post));
    let post = std::sync::Arc::new(post);
    for bb in election.reader().nodes() {
        bb.submit_trustee_post(post.clone(), &sig)
            .expect("validly signed post is accepted");
    }

    // The honest trustee nodes post now, and the result is majority-read.
    net.heal_partitions();
    let result = election.tally().expect("result published");
    assert_eq!(result.tally, vec![1, 2]);
    for bb in election.reader().nodes() {
        let snap = bb.read().expect("replica answers");
        assert_eq!(snap.result.as_ref(), Some(&result));
        assert_eq!(snap.zk_responses.len(), 3, "one used part per vote");
        assert_eq!(
            snap.openings.len(),
            5,
            "the unused parts, the unvoted ballot"
        );
    }
    let audit = election.audit().expect("audit runs");
    assert!(audit.ok(), "audit failed: {:?}", audit.failures);
    election.shutdown();
}

#[test]
fn concurrent_trustee_fan_out_leaves_the_replicas_identical() {
    // The trustee nodes post at once, and each sends its post to every
    // replica before it awaits their replies, so the replicas verify
    // concurrently; they must end up exactly where one serial feeder
    // leaves them.
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
    let boards: Vec<_> = election
        .reader()
        .nodes()
        .iter()
        .map(|bb| bb.read().expect("replica answers"))
        .collect();
    for board in &boards[1..] {
        assert_eq!(encode_snapshot(board), encode_snapshot(&boards[0]));
        assert_eq!(board.openings, boards[0].openings);
        assert_eq!(board.zk_responses, boards[0].zk_responses);
        assert_eq!(board.tally_opening, boards[0].tally_opening);
    }
    election.shutdown();
}
