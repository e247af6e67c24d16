//! A trustee node against real BB replica loops on the simulated network:
//! it waits for the board, posts, and reports a post the replicas refuse.

use ddemos_bb::{BbNode, RemoteBb};
use ddemos_crypto::schnorr::SigningKey;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_net::{DynEndpoint, NetworkProfile, SimNet};
use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::initdata::voteset_message;
use ddemos_protocol::messages::BbWriteMsg;
use ddemos_protocol::posts::VoteSet;
use ddemos_protocol::{ElectionParams, NodeId};
use ddemos_trustee::{node, Trustee, TrusteeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const NUM_BB: usize = 3;

/// Three replicas serving `setup`'s board on `net`, and the writes that
/// take it to the challenge: every collector's `msk` share and its
/// signature on an empty vote set (no ballot was cast).
fn board(net: &SimNet) -> (SetupOutput, Vec<std::thread::JoinHandle<()>>) {
    let params = ElectionParams::new("trustee-node", 3, 2, 4, NUM_BB, 3, 2, 0, 1000).unwrap();
    let setup = ElectionAuthority::new(params, 17).setup(SetupProfile::Full);
    let replicas = (0..NUM_BB as u32)
        .map(|j| {
            let node = Arc::new(BbNode::new(setup.bb_init.clone()));
            ddemos_bb::node::spawn(node, Box::new(net.register(NodeId::bb(j))))
        })
        .collect();
    let set = VoteSet::default();
    let message = voteset_message(&setup.params.election_id, &set.digest());
    let writes: Vec<BbWriteMsg> = setup
        .vc_inits
        .iter()
        .flat_map(|vc| {
            [
                BbWriteMsg::MskShare {
                    share: vc.msk_share,
                },
                BbWriteMsg::VoteSet {
                    from_vc: vc.node_index,
                    set: set.clone(),
                    sig: vc.signing_key.sign(&message),
                },
            ]
        })
        .collect();
    let collectors = RemoteBb::replicas(Box::new(net.register(NodeId::client(1))), NUM_BB);
    let accepted = RemoteBb::write_all(&collectors, &writes);
    assert_eq!(accepted, vec![NUM_BB; writes.len()]);
    (setup, replicas)
}

/// Runs trustee `index` of `setup` as a node, its signing key replaced by
/// `key` if given, and returns how the node ended.
fn run_trustee(
    net: &SimNet,
    setup: &SetupOutput,
    index: usize,
    key: Option<SigningKey>,
) -> Result<(), TrusteeError> {
    let mut init = setup.trustee_inits[index].clone();
    if let Some(key) = key {
        init.signing_key = key;
    }
    let endpoint: DynEndpoint = Box::new(net.register(NodeId::trustee(init.index)));
    let handle = node::spawn(Trustee::new(init), endpoint, NUM_BB, &GlobalClock::new())
        .expect("trustee thread");
    handle.join().expect("trustee node does not panic")
}

#[test]
fn an_honest_trustee_node_posts_once_the_board_is_ready() {
    let net = SimNet::new(NetworkProfile::instant(), 3);
    let (setup, replicas) = board(&net);
    assert_eq!(run_trustee(&net, &setup, 0, None), Ok(()));
    net.shutdown();
    for replica in replicas {
        replica.join().expect("replica exits");
    }
}

#[test]
fn a_post_every_replica_refuses_is_reported() {
    let net = SimNet::new(NetworkProfile::instant(), 4);
    let (setup, replicas) = board(&net);
    // Signed with a key the board does not know for trustee 1.
    let forger = SigningKey::generate(&mut StdRng::seed_from_u64(9));
    assert_eq!(
        run_trustee(&net, &setup, 1, Some(forger)),
        Err(TrusteeError::PostRefused { accepted: 0 })
    );
    net.shutdown();
    for replica in replicas {
        replica.join().expect("replica exits");
    }
}

#[test]
fn a_trustee_waiting_for_the_board_ends_with_the_transport() {
    let net = SimNet::new(NetworkProfile::instant(), 5);
    let params = ElectionParams::new("trustee-wait", 3, 2, 4, NUM_BB, 3, 2, 0, 1000).unwrap();
    let setup = ElectionAuthority::new(params, 18).setup(SetupProfile::Full);
    // No replica ever answers: the node keeps waiting until shutdown.
    let endpoint: DynEndpoint = Box::new(net.register(NodeId::trustee(0)));
    let trustee = Trustee::new(setup.trustee_inits[0].clone());
    let handle = node::spawn(trustee, endpoint, NUM_BB, &GlobalClock::new()).expect("thread");
    std::thread::sleep(std::time::Duration::from_millis(50));
    net.shutdown();
    assert_eq!(
        handle.join().expect("no panic"),
        Err(TrusteeError::Disconnected)
    );
}
