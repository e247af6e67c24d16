//! Bulletin Board subsystem tests: write verification thresholds, msk
//! authentication against `H_msk`, and majority reads over divergent
//! replicas.

use ddemos_bb::{BbNode, MajorityReader};
use ddemos_crypto::schnorr::SigningKey;
use ddemos_crypto::votecode::VoteCode;
use ddemos_ea::{ElectionAuthority, SetupProfile};
use ddemos_protocol::initdata::voteset_message;
use ddemos_protocol::posts::{TrusteePost, VoteSet};
use ddemos_protocol::{ElectionParams, SerialNo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn setup() -> (ddemos_ea::SetupOutput, ElectionParams) {
    let params = ElectionParams::new("bb-test", 2, 2, 4, 3, 5, 3, 0, 1000).unwrap();
    let ea = ElectionAuthority::new(params.clone(), 31);
    (ea.setup(SetupProfile::Full), params)
}

fn signed_set(
    setup: &ddemos_ea::SetupOutput,
    node: usize,
    set: &VoteSet,
) -> ddemos_crypto::schnorr::Signature {
    let msg = voteset_message(&setup.params.election_id, &set.digest());
    setup.vc_inits[node].signing_key.sign(&msg)
}

#[test]
fn vote_set_needs_fv_plus_one_identical_copies() {
    let (out, params) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    let mut set = VoteSet::default();
    set.entries
        .insert(SerialNo(0), out.ballots[0].parts[0].lines[0].vote_code);
    // fv = 1 → needs 2 identical submissions.
    bb.submit_vote_set(0, &set, &signed_set(&out, 0, &set))
        .unwrap();
    assert!(bb.read().vote_set.is_none(), "one copy is not enough");
    bb.submit_vote_set(1, &set, &signed_set(&out, 1, &set))
        .unwrap();
    assert_eq!(bb.read().vote_set, Some(set.clone()));
    let _ = params;
}

#[test]
fn duplicate_submitter_does_not_count_twice() {
    let (out, _) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    let set = VoteSet::default();
    let sig = signed_set(&out, 0, &set);
    bb.submit_vote_set(0, &set, &sig).unwrap();
    bb.submit_vote_set(0, &set, &sig).unwrap();
    assert!(bb.read().vote_set.is_none(), "same node twice is one copy");
}

#[test]
fn forged_vote_set_signature_rejected() {
    let (out, _) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    let set = VoteSet::default();
    let mut rng = StdRng::seed_from_u64(1);
    let forger = SigningKey::generate(&mut rng);
    let msg = voteset_message(&out.params.election_id, &set.digest());
    let bad = forger.sign(&msg);
    assert!(bb.submit_vote_set(0, &set, &bad).is_err());
    assert!(
        bb.submit_vote_set(99, &set, &bad).is_err(),
        "unknown writer"
    );
}

#[test]
fn msk_reconstruction_requires_quorum_and_matches_commitment() {
    let (out, params) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    // First publish a vote set so decryption can proceed afterwards.
    let set = VoteSet::default();
    bb.submit_vote_set(0, &set, &signed_set(&out, 0, &set))
        .unwrap();
    bb.submit_vote_set(1, &set, &signed_set(&out, 1, &set))
        .unwrap();

    let quorum = params.vc_quorum();
    for (i, init) in out.vc_inits.iter().enumerate().take(quorum - 1) {
        bb.submit_msk_share(&init.msk_share).unwrap();
        let _ = i;
    }
    assert!(
        bb.read().decrypted_codes.is_empty(),
        "below quorum: no decryption"
    );
    bb.submit_msk_share(&out.vc_inits[quorum - 1].msk_share)
        .unwrap();
    let snap = bb.read();
    assert!(
        !snap.decrypted_codes.is_empty(),
        "codes decrypted after quorum"
    );
    assert!(snap.challenge.is_some());
    // Decrypted codes match the printed ballots.
    let printed: Vec<VoteCode> = out.ballots[0].parts[0]
        .lines
        .iter()
        .map(|l| l.vote_code)
        .collect();
    let published = &snap.decrypted_codes[&(SerialNo(0), 0)];
    for code in published {
        assert!(printed.contains(code));
    }
}

#[test]
fn tampered_msk_share_rejected() {
    let (out, _) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    let mut share = out.vc_inits[0].msk_share;
    share.share.value += ddemos_crypto::field::Scalar::ONE;
    assert!(
        bb.submit_msk_share(&share).is_err(),
        "EA signature must fail"
    );
}

#[test]
fn majority_reader_outvotes_divergent_replica() {
    let (out, _) = setup();
    let nodes: Vec<Arc<BbNode>> = (0..3)
        .map(|_| Arc::new(BbNode::new(out.bb_init.clone())))
        .collect();
    let reader = MajorityReader::new(nodes.clone());
    // All empty: majority snapshot exists and is empty.
    let snap = reader.read_snapshot().expect("unanimous empty state");
    assert!(snap.vote_set.is_none());

    // Write the vote set to only two of three replicas — still a majority.
    let mut set = VoteSet::default();
    set.entries
        .insert(SerialNo(1), out.ballots[1].parts[1].lines[0].vote_code);
    for bb in nodes.iter().take(2) {
        bb.submit_vote_set(0, &set, &signed_set(&out, 0, &set))
            .unwrap();
        bb.submit_vote_set(1, &set, &signed_set(&out, 1, &set))
            .unwrap();
    }
    let snap = reader.read_snapshot().expect("2-of-3 majority");
    assert_eq!(snap.vote_set, Some(set));

    // A different set on the third node cannot win a majority read.
    let mut other = VoteSet::default();
    other
        .entries
        .insert(SerialNo(0), out.ballots[0].parts[0].lines[1].vote_code);
    nodes[2]
        .submit_vote_set(2, &other, &signed_set(&out, 2, &other))
        .unwrap();
    nodes[2]
        .submit_vote_set(3, &other, &signed_set(&out, 3, &other))
        .unwrap();
    let snap = reader.read_snapshot().expect("majority still holds");
    assert_ne!(snap.vote_set, Some(other));
}

#[test]
fn trustee_post_requires_phase_and_signature() {
    let (out, _) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    let trustee = ddemos_trustee::Trustee::new(out.trustee_inits[0].clone());
    // Producing a post requires BB state; before the vote set, it errors.
    let empty = bb.read();
    assert!(trustee.produce_post(&empty).is_err());
}

#[test]
fn journaled_node_recovers_byte_identical_state_after_amnesia() {
    use ddemos_protocol::clock::GlobalClock;
    use ddemos_storage::{DiskProfile, Journal, JournalConfig, SimDisk};

    let (out, params) = setup();
    let bb = BbNode::new(out.bb_init.clone());
    let disk: ddemos_storage::DynDisk =
        Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant()));
    bb.attach_journal(Journal::new(disk, JournalConfig::default()))
        .unwrap();
    assert!(bb.is_durable());

    // Drive the node through the full write pipeline: vote set, msk
    // shares, trustee posts, result publication.
    let mut set = VoteSet::default();
    set.entries
        .insert(SerialNo(0), out.ballots[0].parts[0].lines[0].vote_code);
    bb.submit_vote_set(0, &set, &signed_set(&out, 0, &set))
        .unwrap();
    bb.submit_vote_set(1, &set, &signed_set(&out, 1, &set))
        .unwrap();
    for init in out.vc_inits.iter().take(params.vc_quorum()) {
        bb.submit_msk_share(&init.msk_share).unwrap();
    }
    let snapshot = bb.read();
    for init in out.trustee_inits.iter().take(params.trustee_threshold) {
        let trustee = ddemos_trustee::Trustee::new(init.clone());
        let (post, sig) = trustee.produce_post(&snapshot).unwrap();
        bb.submit_trustee_post(Arc::new(post), &sig).unwrap();
    }
    let before = bb.read();
    assert!(before.result.is_some(), "pipeline published a result");

    // Power cycle: all volatile state dropped, rebuilt from the journal
    // by replaying the accepted writes through the verified write path.
    bb.recover_amnesia();
    let after = bb.read();
    assert_eq!(before.digest(), after.digest(), "recovered state diverged");
    assert_eq!(before.result, after.result);
    assert_eq!(before.decrypted_codes, after.decrypted_codes);

    // Without a journal, amnesia really is amnesia.
    let volatile = BbNode::new(out.bb_init.clone());
    volatile
        .submit_vote_set(0, &set, &signed_set(&out, 0, &set))
        .unwrap();
    volatile.recover_amnesia();
    assert!(volatile.read().vote_set.is_none());
    assert!(!volatile.is_durable());
}

/// A replica that has accepted the vote set (ballot 0 cast on part A,
/// ballot 1 on part B) and the master key: ready for trustee posts.
fn board_awaiting_trustees(out: &ddemos_ea::SetupOutput) -> BbNode {
    let bb = BbNode::new(out.bb_init.clone());
    let mut set = VoteSet::default();
    set.entries
        .insert(SerialNo(0), out.ballots[0].parts[0].lines[1].vote_code);
    set.entries
        .insert(SerialNo(1), out.ballots[1].parts[1].lines[0].vote_code);
    for vc in 0..2 {
        bb.submit_vote_set(vc as u32, &set, &signed_set(out, vc, &set))
            .unwrap();
    }
    for init in out.vc_inits.iter().take(out.params.vc_quorum()) {
        bb.submit_msk_share(&init.msk_share).unwrap();
    }
    bb
}

/// Every trustee's post over `bb`'s current state, in trustee order.
fn trustee_posts(
    out: &ddemos_ea::SetupOutput,
    bb: &BbNode,
) -> Vec<(Arc<TrusteePost>, ddemos_crypto::schnorr::Signature)> {
    let snapshot = bb.read();
    out.trustee_inits
        .iter()
        .map(|init| {
            let (post, sig) = ddemos_trustee::Trustee::new(init.clone())
                .produce_post(&snapshot)
                .unwrap();
            (Arc::new(post), sig)
        })
        .collect()
}

#[test]
fn any_honest_trustee_subset_publishes_the_same_board() {
    let (out, _) = setup();
    let ascending = board_awaiting_trustees(&out);
    let descending = board_awaiting_trustees(&out);
    let posts = trustee_posts(&out, &ascending);
    for (post, sig) in &posts {
        ascending.submit_trustee_post(post.clone(), sig).unwrap();
    }
    for (post, sig) in posts.iter().rev() {
        descending.submit_trustee_post(post.clone(), sig).unwrap();
    }
    // 0,1,2 reconstructed on one replica, 4,3,2 on the other: the same
    // polynomial either way, so the same values, not just the same keys.
    let (a, d) = (ascending.read(), descending.read());
    assert_eq!(a.result.as_ref().unwrap().tally, vec![1, 1]);
    assert_eq!(a.digest(), d.digest());
    assert_eq!(a.result, d.result);
    assert_eq!(a.openings, d.openings);
    assert_eq!(a.zk_responses, d.zk_responses);
    assert_eq!(a.tally_opening, d.tally_opening);
    assert_eq!(a.openings.len(), 2, "one unused part per voted ballot");
    assert_eq!(a.zk_responses.len(), 2, "one used part per voted ballot");
}

#[test]
fn byzantine_low_index_trustee_cannot_withhold_zk_evidence() {
    let (out, _) = setup();
    let honest = board_awaiting_trustees(&out);
    let bb = board_awaiting_trustees(&out);
    let mut posts = trustee_posts(&out, &bb);
    for (post, sig) in &posts {
        honest.submit_trustee_post(post.clone(), sig).unwrap();
    }
    let honest = honest.read();

    // Trustee 0 posts one wrong ZK response share for ballot 0, validly
    // signed: the tally and every opening still reconstruct from 0,1,2.
    let mut forged = (*posts[0].0).clone();
    forged.zk[0].rows[0][0][1] += ddemos_crypto::field::Scalar::ONE;
    // It also names a part twice in each list, which must not spoil the
    // index set of the subsets it is in.
    forged.zk.push(forged.zk[1].clone());
    forged.openings.push(forged.openings[0].clone());
    let sig = out.trustee_inits[0]
        .signing_key
        .sign(&ddemos_bb::trustee_post_digest(&forged));
    let (bad_serial, bad_part) = (forged.zk[0].serial, forged.zk[0].part.index() as u8);
    posts[0] = (Arc::new(forged), sig);

    for (post, sig) in posts.iter().take(3) {
        bb.submit_trustee_post(post.clone(), sig).unwrap();
    }
    let snap = bb.read();
    assert_eq!(snap.result, honest.result, "the result does not wait");
    assert_eq!(snap.openings, honest.openings);
    assert!(
        !snap.zk_responses.contains_key(&(bad_serial, bad_part)),
        "no subset of {{0,1,2}} proves the forged part"
    );
    assert_eq!(
        snap.zk_responses.len(),
        honest.zk_responses.len() - 1,
        "the forged part does not block the other part of its batch"
    );

    // The fourth post brings an honest subset {1,2,3}: the missing part
    // is filled in although the result is already out.
    bb.submit_trustee_post(posts[3].0.clone(), &posts[3].1)
        .unwrap();
    let snap = bb.read();
    assert_eq!(snap.zk_responses, honest.zk_responses);
    bb.submit_trustee_post(posts[4].0.clone(), &posts[4].1)
        .unwrap();
    let snap = bb.read();
    assert_eq!(snap.zk_responses, honest.zk_responses);
    assert_eq!(snap.digest(), honest.digest());
}

#[test]
fn required_majority_is_a_true_majority() {
    let (out, _) = setup();
    for (replicas, needed) in [(1usize, 1usize), (2, 1), (3, 2), (4, 2), (5, 3)] {
        let nodes: Vec<_> = (0..replicas)
            .map(|_| std::sync::Arc::new(BbNode::new(out.bb_init.clone())))
            .collect();
        let reader = MajorityReader::new(nodes);
        assert_eq!(
            reader.required_majority(),
            needed,
            "fb+1 for {replicas} replicas"
        );
    }
}
