//! Every value the EA deals is a function of `(params, seed)` alone: a
//! golden digest over the whole `Full` set-up, the slice a TCP collector
//! derives compared with its slice of `Full`, and the board a TCP BB
//! replica is dealt compared with `Full`'s.

use ddemos_crypto::sha256::Sha256;
use ddemos_crypto::shamir::Share;
use ddemos_crypto::vss::SignedShare;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_protocol::deal::{deal_chunks, BbInitAssembler};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::{BbInit, VcInit};
use ddemos_protocol::ElectionParams;

fn params(m: usize) -> ElectionParams {
    trustee_params(m, 5, 3)
}

/// `params(m)` with `n_t` trustees of whom `h_t` open.
fn trustee_params(m: usize, n_t: usize, h_t: usize) -> ElectionParams {
    ElectionParams::new("ea-test", 3, m, 4, 3, n_t, h_t, 0, 60_000).unwrap()
}

fn put_share(h: &mut Sha256, share: &Share) {
    h.update(&share.index.to_be_bytes());
    h.update(&share.value.to_bytes());
}

fn put_signed_share(h: &mut Sha256, share: &SignedShare) {
    put_share(h, &share.share);
    h.update(&share.signature.to_bytes());
}

fn put_vc_init(h: &mut Sha256, init: &VcInit) {
    h.update(&init.node_index.to_be_bytes());
    h.update(&init.signing_key.verifying_key().to_bytes());
    for vk in &init.vc_keys {
        h.update(&vk.to_bytes());
    }
    // The tag key, through a MAC it makes.
    h.update(&init.tag_key.mac(&[b"golden"]));
    put_signed_share(h, &init.msk_share);
    for (serial, ballot) in &init.ballots {
        h.update(&serial.0.to_be_bytes());
        for part in &ballot.parts {
            for row in part {
                h.update(&row.code_hash.hash);
                h.update(&row.code_hash.salt.to_be_bytes());
                put_share(h, &row.receipt_share);
                for tag in &row.tags {
                    h.update(tag);
                }
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
                for row in part {
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

/// `setup_with(Full)` for seed 7, three ballots, N_v = 4, with
/// `(m, N_t, h_t)` as listed. The two N_t = 5, h_t = 3 digests were
/// recorded when the EA stopped signing opening bundles: they equal the
/// previous record's digests without the bundle signatures (that record
/// held since receipt shares moved to EA tags, and the one before it
/// since before the set-up arithmetic moved to affine comb tables and
/// witness-based OR simulation). The N_t = 7, h_t = 4 and N_t = 1,
/// h_t = 1 digests were recorded with Horner-evaluated trustee sharings,
/// before the walk moved to forward differences; they pin sharing
/// polynomials of degree 3 and 0.
const RECORDED: [(usize, usize, usize, &str); 4] = [
    (
        2,
        5,
        3,
        "82b0bbb4b0ce0277f51ba1541d027633b8c56de7704c15dea892a86d0b49b4d3",
    ),
    (
        3,
        5,
        3,
        "db0cc9315beb86f7b7ed476bcdf9638b1b5d43f091e4d0c9ff148c2adeadd0c3",
    ),
    (
        3,
        7,
        4,
        "7155a7bfb239deb2779306fa7790ceefd775c7b972a6120b077a490429a774c5",
    ),
    (
        2,
        1,
        1,
        "73db9a45fe82fe8aa38834349610fe789b78a4fbd3bf284c110fd826eeceac43",
    ),
];

#[test]
fn full_setup_matches_the_recorded_digest() {
    for (m, n_t, h_t, expected) in RECORDED {
        for threads in [1, 8] {
            let out = ElectionAuthority::new(trustee_params(m, n_t, h_t), 7)
                .setup_with(SetupProfile::Full, &Pool::new(threads));
            assert_eq!(
                digest(&out),
                expected,
                "m = {m}, N_t = {n_t}, h_t = {h_t}, threads = {threads}"
            );
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
        }
    }
}

/// A BB replica is dealt the `Full` set-up's board: the chunks of its
/// deal, assembled, are the EA's `BbInit` value for value, whether one
/// chunk carries every ballot or each carries one.
#[test]
fn the_dealt_board_is_the_full_setups_board() {
    for m in [2, 3] {
        let full =
            ElectionAuthority::new(params(m), 7).setup_with(SetupProfile::Full, &Pool::new(1));
        let expected = slice_digest(|h| put_bb_init(h, &full.bb_init));
        let whole = deal_chunks(&full.bb_init, usize::MAX).unwrap();
        // Half of three ballots holds one.
        let one_ballot = deal_chunks(&full.bb_init, whole[1].len() / 2).unwrap();
        assert_eq!((whole.len(), one_ballot.len()), (2, 4), "m = {m}");
        for chunks in [whole, one_ballot] {
            let mut assembler = BbInitAssembler::new(params(m));
            for chunk in &chunks {
                assert!(!assembler.is_complete());
                assembler.take(chunk).unwrap();
            }
            let dealt = assembler.into_init().expect("every chunk taken");
            assert_eq!(dealt.params, full.bb_init.params);
            assert_eq!(dealt.ballots, full.bb_init.ballots);
            assert_eq!(
                slice_digest(|h| put_bb_init(h, &dealt)),
                expected,
                "m = {m}"
            );
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
