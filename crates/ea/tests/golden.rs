//! Every value the EA deals is a function of `(params, seed)` alone: a
//! golden digest over the whole `Full` set-up (recorded before the
//! fixed-base/witness/`sign_many` rewrite of the set-up arithmetic, and
//! unchanged by it), and the role slices a TCP replica derives compared
//! with the matching slice of `Full`.

use ddemos_crypto::sha256::Sha256;
use ddemos_crypto::vss::SignedShare;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::{BbInit, VcInit};
use ddemos_protocol::ElectionParams;

fn params(m: usize) -> ElectionParams {
    ElectionParams::new("ea-test", 3, m, 4, 3, 5, 3, 0, 60_000).unwrap()
}

fn put_share(h: &mut Sha256, share: &SignedShare) {
    h.update(&share.share.index.to_be_bytes());
    h.update(&share.share.value.to_bytes());
    h.update(&share.signature.to_bytes());
}

fn put_vc_init(h: &mut Sha256, init: &VcInit) {
    h.update(&init.node_index.to_be_bytes());
    h.update(&init.signing_key.verifying_key().to_bytes());
    h.update(&init.ea_key.to_bytes());
    for vk in &init.vc_keys {
        h.update(&vk.to_bytes());
    }
    put_share(h, &init.msk_share);
    for (serial, ballot) in &init.ballots {
        h.update(&serial.0.to_be_bytes());
        for part in &ballot.parts {
            for row in part {
                h.update(&row.code_hash.hash);
                h.update(&row.code_hash.salt.to_be_bytes());
                put_share(h, &row.receipt_share);
            }
        }
    }
}

fn put_bb_init(h: &mut Sha256, init: &BbInit) {
    h.update(&init.msk_commitment.hash);
    h.update(&init.msk_commitment.salt.to_be_bytes());
    h.update(&init.elgamal_pk.0.to_bytes());
    h.update(&init.ea_key.to_bytes());
    for vk in init.vc_keys.iter().chain(&init.trustee_keys) {
        h.update(&vk.to_bytes());
    }
    for (serial, ballot) in init.ballots.iter() {
        h.update(&serial.0.to_be_bytes());
        for part in &ballot.parts {
            for row in part {
                h.update(&row.enc_code);
                for ct in &row.commitment {
                    h.update(&ct.to_bytes());
                }
                for first in &row.or_first {
                    h.update(&first.branch0.to_bytes());
                    h.update(&first.branch1.to_bytes());
                }
                h.update(&row.sum_first.to_bytes());
            }
        }
    }
}

/// SHA-256 over the canonical bytes of everything `out` hands out.
fn digest(out: &SetupOutput) -> String {
    let mut h = Sha256::new();
    for ballot in &out.ballots {
        h.update(&ballot.serial.0.to_be_bytes());
        for part in &ballot.parts {
            for line in &part.lines {
                h.update(&line.vote_code.0);
                h.update(&(line.option_index as u32).to_be_bytes());
                h.update(&line.receipt.to_be_bytes());
            }
        }
    }
    for init in &out.vc_inits {
        put_vc_init(&mut h, init);
    }
    put_bb_init(&mut h, &out.bb_init);
    for init in &out.trustee_inits {
        h.update(&init.index.to_be_bytes());
        h.update(&init.signing_key.verifying_key().to_bytes());
        for (serial, ballot) in &init.ballots {
            h.update(&serial.0.to_be_bytes());
            for part in &ballot.parts {
                for row in &part.rows {
                    for ct in &row.cts {
                        h.update(&ct.bit.to_bytes());
                        h.update(&ct.rand.to_bytes());
                        for c in &ct.or_coeffs {
                            h.update(&c.to_bytes());
                        }
                    }
                    for c in &row.sum_coeffs {
                        h.update(&c.to_bytes());
                    }
                }
                h.update(&part.opening_sig.to_bytes());
            }
        }
    }
    h.update(&out.consensus_beacon.to_be_bytes());
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn slice_digest(put: impl FnOnce(&mut Sha256)) -> [u8; 32] {
    let mut h = Sha256::new();
    put(&mut h);
    h.finalize()
}

/// Recorded from `setup_with(Full)` at the commit before the set-up
/// arithmetic moved to affine comb tables, witness-based OR simulation
/// and `sign_many`: seed 7, three ballots, N_v = 4, N_t = 5, h_t = 3.
const RECORDED: [(usize, &str); 2] = [
    (
        2,
        "53e136021f93e671c23ac1df2e10b7a4bc6b14cca8c2d6dd56b57ac00df8899d",
    ),
    (
        3,
        "1035dd9b573a1adec1942d669732647c43e138d8ac084e0a3f44b8fd9f64cdb9",
    ),
];

#[test]
fn full_setup_matches_the_recorded_digest() {
    for (m, expected) in RECORDED {
        for threads in [1, 8] {
            let out = ElectionAuthority::new(params(m), 7)
                .setup_with(SetupProfile::Full, &Pool::new(threads));
            assert_eq!(digest(&out), expected, "m = {m}, threads = {threads}");
        }
    }
}

#[test]
fn role_slices_equal_their_slice_of_the_full_setup() {
    for m in [2, 3] {
        let ea = ElectionAuthority::new(params(m), 7);
        let full = ea.setup_with(SetupProfile::Full, &Pool::new(1));
        for threads in [1, 8] {
            let pool = Pool::new(threads);
            for (node, expected) in full.vc_inits.iter().enumerate() {
                let slice = ea.setup_with(SetupProfile::VcNode(node as u32), &pool);
                let [init] = slice.vc_inits.as_slice() else {
                    panic!("a VcNode slice holds exactly its own VcInit");
                };
                assert_eq!(init.ballots, expected.ballots);
                assert_eq!(
                    slice_digest(|h| put_vc_init(h, init)),
                    slice_digest(|h| put_vc_init(h, expected)),
                    "m = {m}, threads = {threads}, node {node}"
                );
                assert_eq!(slice.consensus_beacon, full.consensus_beacon);
                // What §III of the paper says a collector never has.
                assert!(slice.ballots.is_empty());
                assert!(slice.trustee_inits.is_empty());
                assert!(slice.bb_init.ballots.is_empty());
            }
            let slice = ea.setup_with(SetupProfile::BbNode, &pool);
            assert_eq!(slice.bb_init.ballots, full.bb_init.ballots);
            assert_eq!(
                slice_digest(|h| put_bb_init(h, &slice.bb_init)),
                slice_digest(|h| put_bb_init(h, &full.bb_init)),
                "m = {m}, threads = {threads}"
            );
            assert!(slice.ballots.is_empty());
            assert!(slice.vc_inits.is_empty());
            assert!(slice.trustee_inits.is_empty());
        }
    }
}

#[test]
fn vc_ballots_of_a_node_range_are_that_range_of_all_nodes() {
    let ea = ElectionAuthority::new(params(2), 7);
    let serial = ddemos_protocol::SerialNo(1);
    let all = ea.vc_ballots(serial, 0..4);
    assert_eq!(all.len(), 4);
    for node in 0..4 {
        assert_eq!(ea.vc_ballots(serial, node..node + 1), all[node..node + 1]);
    }
    assert_eq!(ea.vc_ballots(serial, 1..3), all[1..3]);
    assert!(ea.vc_ballots(serial, 0..0).is_empty());
}
