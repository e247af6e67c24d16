//! Election setup: deterministic generation of all initialization data.
//!
//! One per-ballot deriver ([`ElectionAuthority::derive`]) serves every
//! consumer: the whole-election profiles, the slice a TCP replica derives
//! for its own role, the harness's partial cast range and the virtual
//! ballot store. A [`SetupProfile`] only selects which of the ballot's
//! independent PRF streams are walked and which of the results are kept
//! and signed, so a value is the same in every profile that contains it.

use ddemos_crypto::curve::CombBatch;
use ddemos_crypto::elgamal::{self, Ciphertext, PreparedKey, PublicKey};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::hmac::{Prf, PrfRng};
use ddemos_crypto::schnorr::{SigningKey, VerifyingKey};
use ddemos_crypto::shamir::{self, Polynomial, Share};
use ddemos_crypto::votecode::{self, MskCommitment, VoteCode, VoteCodeHash};
use ddemos_crypto::vss::{DealerVss, SignedShare};
use ddemos_crypto::zkp::{self, CpFirstMove, OrFirstMove};
use ddemos_protocol::ballot::{Ballot, BallotLine, BallotPart};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::{
    msk_share_context, opening_bundle_message, receipt_share_context, BbBallot, BbInit, BbRow,
    TrusteeBallotShares, TrusteeCtShares, TrusteeInit, TrusteePartShares, TrusteeRowShares,
    VcBallot, VcInit, VcRow,
};
use ddemos_protocol::params::ElectionParams;
use ddemos_protocol::{PartId, SerialNo};
use rand::{Rng, RngCore};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// How much initialization data to materialize: the whole election's, or
/// the slice one replica role holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetupProfile {
    /// Only what the vote-collection phase needs (ballots + VC init).
    /// Used by the Fig 4/5a/5b benchmarks, which exercise vote collection
    /// exclusively — the paper likewise pre-generates only the data each
    /// experiment touches.
    VcOnly,
    /// Everything, including BB cryptographic payloads and trustee shares.
    Full,
    /// What VC node `index` is handed, and nothing else: its own
    /// [`VcInit`] (its rows, its receipt and `msk` shares — the only ones
    /// signed) in `vc_inits[0]`, and the consensus beacon. No printed
    /// ballot, BB payload or trustee material is derived.
    VcNode(u32),
    /// What a BB node is handed: [`BbInit`] with every ballot's payload.
    /// The per-ballot `crypto` stream is walked in the order `Full` walks
    /// it (the commitments and first moves depend on its position), but
    /// the trustees' sharing polynomials are stepped over unhashed
    /// ([`PrfRng::skip`]) and their opening bundles are not signed.
    BbNode,
}

/// What a profile needs of each ballot.
#[derive(Clone, Debug)]
struct Slice {
    /// The printed ballot, for the voter.
    printed: bool,
    /// The collectors whose rows and signed receipt shares to deal.
    vc_nodes: Range<usize>,
    /// The BB rows: commitments, first moves, encrypted vote codes.
    board: bool,
    /// The trustees' share rows and signed opening bundles (needs
    /// `board`: they are shares of its openings and proof coefficients).
    trustees: bool,
}

/// Everything the EA hands out before being destroyed.
pub struct SetupOutput {
    /// Election parameters.
    pub params: ElectionParams,
    /// Voter ballots (distributed over untappable channels).
    pub ballots: Vec<Ballot>,
    /// Per-VC-node initialization data.
    pub vc_inits: Vec<VcInit>,
    /// Bulletin-board initialization data (shared across BB nodes).
    pub bb_init: BbInit,
    /// Per-trustee initialization data.
    pub trustee_inits: Vec<TrusteeInit>,
    /// Common-coin beacon for the batched binary consensus.
    pub consensus_beacon: u64,
}

/// The Election Authority. Construct, call [`ElectionAuthority::setup`],
/// then drop — mirroring the paper's "destroyed upon completion of setup".
pub struct ElectionAuthority {
    params: ElectionParams,
    master: Prf,
    ea_key: SigningKey,
    vc_keys: Vec<SigningKey>,
    trustee_keys: Vec<SigningKey>,
    elgamal_pk: PublicKey,
    /// The election key with its precomputed comb table — `commit_rows`
    /// exponentiates against it for every ciphertext and proof.
    prepared_pk: PreparedKey,
    msk: [u8; 16],
    msk_salt: u64,
    beacon: u64,
}

/// The printed ballot with its row shuffles.
struct DerivedBallot {
    ballot: Ballot,
    /// Shuffles per part: `perm[part][shuffled_row] = option_index`.
    perms: [Vec<usize>; 2],
}

/// One ballot's slice of the initialization data.
struct BallotBundle {
    serial: SerialNo,
    ballot: Option<Ballot>,
    /// One entry per collector of the slice, in node order.
    vc: Vec<VcBallot>,
    bb: Option<BbBallot>,
    /// One entry per trustee (empty unless the slice has trustees).
    trustee: Vec<[TrusteePartShares; 2]>,
}

/// The BB rows of one ballot and each trustee's still unsigned share rows.
type CommittedRows = ([Vec<BbRow>; 2], Vec<[Vec<TrusteeRowShares>; 2]>);

impl ElectionAuthority {
    /// Creates the EA for an election, deriving all keys from `seed`.
    pub fn new(params: ElectionParams, seed: u64) -> ElectionAuthority {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_be_bytes());
        seed_bytes[8..24].copy_from_slice(&params.election_id.0);
        let master = Prf::new(ddemos_crypto::sha256::sha256(&seed_bytes));
        let mut key_rng = PrfRng::new(&master, b"keys");
        let ea_key = SigningKey::generate(&mut key_rng);
        let vc_keys: Vec<SigningKey> = (0..params.num_vc)
            .map(|_| SigningKey::generate(&mut key_rng))
            .collect();
        let trustee_keys: Vec<SigningKey> = (0..params.num_trustees)
            .map(|_| SigningKey::generate(&mut key_rng))
            .collect();
        // The ElGamal secret key is generated and *immediately discarded* —
        // option-encoding commitments are only ever opened via trustee
        // shares, never decrypted.
        let (_sk, elgamal_pk) = elgamal::keygen(&mut key_rng);
        let mut msk = [0u8; 16];
        key_rng.fill_bytes(&mut msk);
        let msk_salt = key_rng.next_u64();
        let beacon = key_rng.next_u64();
        ElectionAuthority {
            params,
            master,
            ea_key,
            vc_keys,
            trustee_keys,
            prepared_pk: PreparedKey::new(&elgamal_pk),
            elgamal_pk,
            msk,
            msk_salt,
            beacon,
        }
    }

    /// The EA's verification key (published).
    pub fn verifying_key(&self) -> VerifyingKey {
        self.ea_key.verifying_key()
    }

    /// The election parameters.
    pub fn params(&self) -> &ElectionParams {
        &self.params
    }

    /// Derives the voter-facing ballot for `serial` on demand (identical to
    /// the one `setup` materializes). This is the "virtual ballot store"
    /// that makes 250M-ballot elections representable (Fig 5a).
    pub fn voter_ballot(&self, serial: SerialNo) -> Ballot {
        self.derive_ballot(serial).ballot
    }

    /// Derives the rows of one ballot (shuffled, with hashed codes and
    /// EA-signed receipt shares) for the collectors `nodes`, in node
    /// order. One dealing serves them all, and only their shares are
    /// signed: `0..num_vc` for every collector, `i..i + 1` for the row a
    /// virtual store looks up on node `i`.
    ///
    /// # Panics
    /// Panics if `nodes` reaches past the election's `num_vc` collectors.
    pub fn vc_ballots(&self, serial: SerialNo, nodes: Range<usize>) -> Vec<VcBallot> {
        let slice = Slice {
            printed: false,
            vc_nodes: nodes,
            board: false,
            trustees: false,
        };
        self.derive(serial, &slice).vc
    }

    fn derive_ballot(&self, serial: SerialNo) -> DerivedBallot {
        let mut rng = PrfRng::new(&self.master.derive_indexed(b"ballot", serial.0), b"lines");
        let m = self.params.num_options;
        let mut parts = Vec::with_capacity(2);
        let mut perms = Vec::with_capacity(2);
        for _part in 0..2 {
            let mut lines = Vec::with_capacity(m);
            for option_index in 0..m {
                lines.push(BallotLine {
                    vote_code: VoteCode::random(&mut rng),
                    option_index,
                    receipt: rng.next_u64(),
                });
            }
            // Fisher–Yates shuffle mapping shuffled row -> option index.
            let mut perm: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            parts.push(BallotPart { lines });
            perms.push(perm);
        }
        let perms: [Vec<usize>; 2] = [perms.remove(0), perms.remove(0)];
        DerivedBallot {
            ballot: Ballot {
                serial,
                parts: [parts.remove(0), parts.remove(0)],
            },
            perms,
        }
    }

    /// The per-ballot deriver: everything `slice` needs of ballot
    /// `serial`, and nothing it does not.
    ///
    /// Every EA signature of the ballot — a receipt share per row and
    /// collector, an opening bundle per part and trustee — is made by one
    /// [`SigningKey::sign_many`] at the end: the stages collect their
    /// messages in a fixed order and are dealt the signatures back in it.
    fn derive(&self, serial: SerialNo, slice: &Slice) -> BallotBundle {
        let derived = self.derive_ballot(serial);
        let eid = &self.params.election_id;
        let mut messages: Vec<Vec<u8>> = Vec::new();

        // Collector rows: hashed codes, and the receipt of every row
        // shared (Nv−fv, Nv) — the slice keeps its own nodes' shares.
        let mut vc_rows: [Vec<(VoteCodeHash, Vec<Share>)>; 2] = [Vec::new(), Vec::new()];
        if !slice.vc_nodes.is_empty() {
            let _t = ddemos_obs::scoped_ns("ea.setup_ns", "vc_rows");
            let mut salt_rng =
                PrfRng::new(&self.master.derive_indexed(b"vc-salts", serial.0), b"salts");
            for part in PartId::BOTH {
                let perm = &derived.perms[part.index()];
                for (row, &opt) in perm.iter().enumerate() {
                    let line = &derived.ballot.parts[part.index()].lines[opt];
                    let salt = salt_rng.next_u64();
                    let code_hash = VoteCodeHash::commit(&line.vote_code, salt);
                    let mut share_rng = PrfRng::new(
                        &self
                            .master
                            .derive_indexed(b"receipt-share", serial.0)
                            .derive_indexed(b"part", part.index() as u64),
                        &row.to_be_bytes(),
                    );
                    let shares = shamir::split(
                        Scalar::from_u64(line.receipt),
                        self.params.vc_quorum(),
                        self.params.num_vc,
                        &mut share_rng,
                    )
                    .expect("valid receipt VSS parameters");
                    let shares = shares[slice.vc_nodes.clone()].to_vec();
                    let ctx = receipt_share_context(eid, serial, part, row);
                    messages.extend(shares.iter().map(|s| DealerVss::share_message(&ctx, s)));
                    vc_rows[part.index()].push((code_hash, shares));
                }
            }
        }

        let (bb, trustee_rows) = if slice.board {
            let (bb_parts, trustee_rows) = self.commit_rows(&derived, slice.trustees);
            (Some(BbBallot { parts: bb_parts }), trustee_rows)
        } else {
            (None, Vec::new())
        };

        let _t = ddemos_obs::scoped_ns("ea.setup_ns", "sign");
        // Each trustee's opening bundle per part.
        for (t, parts) in trustee_rows.iter().enumerate() {
            for (part, rows) in PartId::BOTH.into_iter().zip(parts) {
                let openings: Vec<Vec<(Scalar, Scalar)>> = rows
                    .iter()
                    .map(|row| row.cts.iter().map(|ct| (ct.bit, ct.rand)).collect())
                    .collect();
                messages.push(opening_bundle_message(
                    eid, serial, part, t as u32, &openings,
                ));
            }
        }
        let mut signatures = self.ea_key.sign_many(&messages).into_iter();
        let mut next_signature = || signatures.next().expect("one signature per message");

        let mut vc: Vec<VcBallot> = slice
            .vc_nodes
            .clone()
            .map(|_| VcBallot {
                parts: [Vec::new(), Vec::new()],
            })
            .collect();
        for (part, rows) in vc_rows.into_iter().enumerate() {
            for (code_hash, shares) in rows {
                for (ballot, share) in vc.iter_mut().zip(shares) {
                    ballot.parts[part].push(VcRow {
                        code_hash,
                        receipt_share: SignedShare {
                            share,
                            signature: next_signature(),
                        },
                    });
                }
            }
        }
        let trustee = trustee_rows
            .into_iter()
            .map(|parts| {
                parts.map(|rows| TrusteePartShares {
                    rows,
                    opening_sig: next_signature(),
                })
            })
            .collect();
        BallotBundle {
            serial,
            ballot: slice.printed.then_some(derived.ballot),
            vc,
            bb,
            trustee,
        }
    }

    /// One `(h_t, N_t)` sharing drawn from `rng`: the trustees' values in
    /// index order, or — when nobody is handed them — nothing, the stream
    /// stepping over the polynomial's draws unhashed.
    fn trustee_shares(&self, secret: Scalar, keep: bool, rng: &mut PrfRng) -> Vec<Scalar> {
        let threshold = self.params.trustee_threshold;
        if !keep {
            rng.skip(Polynomial::random_bytes(threshold));
            return Vec::new();
        }
        Polynomial::random(secret, threshold, rng)
            .expect("trustee sharing parameters")
            .shares(self.params.num_trustees)
            .into_iter()
            .map(|share| share.value)
            .collect()
    }

    /// The BB rows of one ballot — per shuffled row the commitment to the
    /// unit vector `e_opt`, its OR and sum first moves, the encrypted vote
    /// code — and, when `trustees` is set, every trustee's shares of the
    /// openings and of the proofs' affine response coefficients.
    ///
    /// Three passes. The *walk* reads the ballot's `crypto` stream in its
    /// one order and does everything that is scalars — openings, proof
    /// coefficients, the trustees' sharings, the vote-code encryptions —
    /// leaving every group element as a pending sum in one [`CombBatch`];
    /// *multiply* evaluates the batch, the ballot's whole group
    /// arithmetic (`2m(7m + 2)` fixed-base multiplications) in lockstep;
    /// *assemble* deals the normalised points back into rows.
    fn commit_rows(&self, derived: &DerivedBallot, trustees: bool) -> CommittedRows {
        let m = self.params.num_options;
        let nt = if trustees {
            self.params.num_trustees
        } else {
            0
        };
        let pk = &self.prepared_pk;
        let serial = derived.ballot.serial;
        let mut rng = PrfRng::new(&self.master.derive_indexed(b"crypto", serial.0), b"zk");
        let mut batch = CombBatch::new();
        let mut enc_codes = Vec::with_capacity(2 * m);
        // trustee_rows[t][part] accumulates rows for trustee t.
        let mut trustee_rows: Vec<[Vec<TrusteeRowShares>; 2]> =
            (0..nt).map(|_| [Vec::new(), Vec::new()]).collect();
        let walk = ddemos_obs::scoped_ns("ea.setup_ns", "walk");
        for part in PartId::BOTH {
            let perm = &derived.perms[part.index()];
            for &opt in perm.iter() {
                let line = &derived.ballot.parts[part.index()].lines[opt];
                let mut r_sum = Scalar::ZERO;
                // Per-trustee accumulators for this row.
                let mut trustee_cts: Vec<Vec<TrusteeCtShares>> =
                    (0..nt).map(|_| Vec::with_capacity(m)).collect();
                for j in 0..m {
                    let bit = u8::from(j == opt);
                    let bit_scalar = Scalar::from_u64(u64::from(bit));
                    let r = Scalar::random(&mut rng);
                    r_sum += r;
                    pk.encrypt_into(&bit_scalar, &r, &mut batch);
                    let secrets = zkp::or_prove_into(pk, bit, &r, &mut rng, &mut batch);
                    // Share the opening (bit, r) and the 8 affine ZK
                    // coefficients (h_t, N_t), in that order.
                    let shared: Vec<Vec<Scalar>> = [bit_scalar, r]
                        .into_iter()
                        .chain(secrets.coefficients())
                        .map(|secret| self.trustee_shares(secret, trustees, &mut rng))
                        .collect();
                    for (t, acc) in trustee_cts.iter_mut().enumerate() {
                        acc.push(TrusteeCtShares {
                            bit: shared[0][t],
                            rand: shared[1][t],
                            or_coeffs: std::array::from_fn(|c| shared[2 + c][t]),
                        });
                    }
                }
                let sum_secrets = zkp::sum_prove_into(pk, &r_sum, &mut rng, &mut batch);
                let [gamma, delta] = sum_secrets
                    .coefficients()
                    .map(|secret| self.trustee_shares(secret, trustees, &mut rng));
                for (t, acc) in trustee_cts.into_iter().enumerate() {
                    trustee_rows[t][part.index()].push(TrusteeRowShares {
                        cts: acc,
                        sum_coeffs: [gamma[t], delta[t]],
                    });
                }
                // Encrypted vote code for the BB.
                let mut iv = [0u8; 16];
                rng.fill_bytes(&mut iv);
                enc_codes.push(votecode::encrypt_vote_code(&self.msk, iv, &line.vote_code));
            }
        }
        drop(walk);

        let multiply = ddemos_obs::scoped_ns("ea.setup_ns", "multiply");
        let mut points = batch.evaluate().into_iter();
        drop(multiply);

        // In the walk's order: per row, a ciphertext and its OR first move
        // per option, then the sum first move.
        let _t = ddemos_obs::scoped_ns("ea.setup_ns", "assemble");
        let mut enc_codes = enc_codes.into_iter();
        let bb_parts = PartId::BOTH.map(|_| {
            (0..m)
                .map(|_| {
                    let (commitment, or_first) = (0..m)
                        .map(|_| {
                            let ct = Ciphertext::next_from(&mut points);
                            (ct, OrFirstMove::next_from(&mut points))
                        })
                        .unzip();
                    BbRow {
                        enc_code: enc_codes.next().expect("one encrypted code per row"),
                        commitment,
                        or_first,
                        sum_first: CpFirstMove::next_from(&mut points),
                    }
                })
                .collect()
        });
        (bb_parts, trustee_rows)
    }

    /// The `msk` shares of the collectors `nodes`, EA-signed.
    fn msk_shares(&self, nodes: Range<usize>) -> Vec<SignedShare> {
        // msk embeds in a scalar (128 bits < group order).
        let msk_scalar = Scalar::from_u128(u128::from_be_bytes(self.msk));
        let mut rng = PrfRng::new(&self.master, b"msk-shares");
        let shares = shamir::split(
            msk_scalar,
            self.params.vc_quorum(),
            self.params.num_vc,
            &mut rng,
        )
        .expect("msk sharing parameters");
        DealerVss::sign(
            &self.ea_key,
            &msk_share_context(&self.params.election_id),
            &shares[nodes],
        )
    }

    /// Keys, `msk` shares and empty ballot maps: the initialization data
    /// of the collectors `nodes`, of the BB, and (`trustees`) of every
    /// trustee, before any ballot is dealt into them.
    fn keys_only(&self, nodes: Range<usize>, trustees: bool) -> SetupOutput {
        let vc_vks: Vec<VerifyingKey> = self.vc_keys.iter().map(|k| k.verifying_key()).collect();
        let trustee_vks: Vec<VerifyingKey> = self
            .trustee_keys
            .iter()
            .map(|k| k.verifying_key())
            .collect();
        let vc_inits: Vec<VcInit> = nodes
            .clone()
            .zip(self.msk_shares(nodes))
            .map(|(i, msk_share)| VcInit {
                params: self.params.clone(),
                node_index: i as u32,
                signing_key: self.vc_keys[i],
                vc_keys: vc_vks.clone(),
                ea_key: self.ea_key.verifying_key(),
                msk_share,
                ballots: BTreeMap::new(),
            })
            .collect();
        let trustee_keys = if trustees {
            self.trustee_keys.as_slice()
        } else {
            &[]
        };
        let trustee_inits: Vec<TrusteeInit> = trustee_keys
            .iter()
            .enumerate()
            .map(|(t, key)| TrusteeInit {
                params: self.params.clone(),
                index: t as u32,
                signing_key: *key,
                ea_key: self.ea_key.verifying_key(),
                elgamal_pk: self.elgamal_pk,
                ballots: BTreeMap::new(),
            })
            .collect();
        SetupOutput {
            params: self.params.clone(),
            ballots: Vec::new(),
            vc_inits,
            bb_init: BbInit {
                params: self.params.clone(),
                msk_commitment: MskCommitment::commit(&self.msk, self.msk_salt),
                elgamal_pk: self.elgamal_pk,
                ea_key: self.ea_key.verifying_key(),
                vc_keys: vc_vks,
                trustee_keys: trustee_vks,
                ballots: Arc::new(BTreeMap::new()),
            },
            trustee_inits,
            consensus_beacon: self.beacon,
        }
    }

    /// Produces initialization data with **empty ballot maps** — keys and
    /// `msk` shares only. Benchmarks wire nodes to virtual or
    /// externally-built [stores](ddemos_protocol::initdata::VcInit) and
    /// would otherwise duplicate every ballot in the init structures.
    pub fn setup_keys_only(&self) -> SetupOutput {
        self.keys_only(0..self.params.num_vc, false)
    }

    /// Runs setup, materializing all initialization data, on the default
    /// [`Pool`] (`DDEMOS_THREADS` / available parallelism).
    pub fn setup(&self, profile: SetupProfile) -> SetupOutput {
        self.setup_with(profile, &Pool::from_env())
    }

    /// Runs setup on an explicit executor.
    ///
    /// Ballot-level derivation is deterministic per serial and the pool
    /// preserves input order, so the output is byte-identical across
    /// thread counts.
    ///
    /// # Panics
    /// Panics if `profile` names a collector the election does not have.
    pub fn setup_with(&self, profile: SetupProfile, pool: &Pool) -> SetupOutput {
        let nv = self.params.num_vc;
        // The two whole-election profiles also hand out the printed
        // ballots and every trustee's keys; a replica's slice has neither.
        let whole = matches!(profile, SetupProfile::VcOnly | SetupProfile::Full);
        let slice = Slice {
            printed: whole,
            vc_nodes: match profile {
                SetupProfile::VcOnly | SetupProfile::Full => 0..nv,
                SetupProfile::VcNode(index) => {
                    assert!((index as usize) < nv, "no VC node {index} in this election");
                    index as usize..index as usize + 1
                }
                SetupProfile::BbNode => 0..0,
            },
            board: matches!(profile, SetupProfile::Full | SetupProfile::BbNode),
            trustees: profile == SetupProfile::Full,
        };
        let serials: Vec<SerialNo> = (0..self.params.num_ballots).map(SerialNo).collect();
        let bundles: Vec<BallotBundle> = pool.map(&serials, |&serial| self.derive(serial, &slice));

        let mut out = self.keys_only(slice.vc_nodes.clone(), whole);
        let mut bb_ballots: BTreeMap<SerialNo, BbBallot> = BTreeMap::new();
        for bundle in bundles {
            out.ballots.extend(bundle.ballot);
            for (init, vcb) in out.vc_inits.iter_mut().zip(bundle.vc) {
                init.ballots.insert(bundle.serial, vcb);
            }
            if let Some(bb) = bundle.bb {
                bb_ballots.insert(bundle.serial, bb);
            }
            for (init, parts) in out.trustee_inits.iter_mut().zip(bundle.trustee) {
                init.ballots
                    .insert(bundle.serial, TrusteeBallotShares { parts });
            }
        }
        out.ballots.sort_by_key(|b| b.serial);
        out.bb_init.ballots = Arc::new(bb_ballots);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::shamir::Share;

    fn params(n: u64, m: usize) -> ElectionParams {
        ElectionParams::new("ea-test", n, m, 4, 3, 5, 3, 0, 60_000).unwrap()
    }

    #[test]
    fn setup_is_deterministic() {
        let p = params(3, 2);
        let a = ElectionAuthority::new(p.clone(), 7).setup(SetupProfile::VcOnly);
        let b = ElectionAuthority::new(p, 7).setup(SetupProfile::VcOnly);
        assert_eq!(a.ballots, b.ballots);
        assert_eq!(a.consensus_beacon, b.consensus_beacon);
    }

    #[test]
    fn ballots_are_well_formed_and_distinct() {
        let ea = ElectionAuthority::new(params(5, 3), 1);
        let out = ea.setup(SetupProfile::VcOnly);
        assert_eq!(out.ballots.len(), 5);
        for b in &out.ballots {
            assert!(b.well_formed());
        }
        // Codes unique across the election (overwhelming probability).
        let mut all: Vec<_> = out
            .ballots
            .iter()
            .flat_map(|b| b.all_codes().map(|(l, _)| l.vote_code))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 5 * 3 * 2);
    }

    #[test]
    fn voter_ballot_matches_materialized() {
        let ea = ElectionAuthority::new(params(4, 2), 3);
        let out = ea.setup(SetupProfile::VcOnly);
        for b in &out.ballots {
            assert_eq!(&ea.voter_ballot(b.serial), b);
        }
    }

    #[test]
    fn vc_rows_validate_codes_and_shares_reconstruct_receipts() {
        let p = params(2, 2);
        let ea = ElectionAuthority::new(p.clone(), 5);
        let out = ea.setup(SetupProfile::VcOnly);
        let serial = SerialNo(1);
        let ballot = &out.ballots[1];
        let line = &ballot.parts[0].lines[1]; // part A, option 1
                                              // Each node can locate the code via hashes.
        let mut shares = Vec::new();
        let mut located = None;
        for init in &out.vc_inits {
            let vcb = &init.ballots[&serial];
            let (part, row) = vcb.find_code(&line.vote_code).expect("code located");
            assert_eq!(part, PartId::A);
            located = Some((part, row));
            let share = vcb.parts[part.index()][row].receipt_share;
            // EA signature binds (election, serial, part, row).
            let ctx = receipt_share_context(&p.election_id, serial, part, row);
            assert!(DealerVss::verify(&init.ea_key, &ctx, &share));
            shares.push(share);
        }
        let (_, row) = located.unwrap();
        let _ = row;
        // Any quorum of shares reconstructs the printed receipt.
        let rec = DealerVss::reconstruct(&shares[..p.vc_quorum()], p.vc_quorum()).unwrap();
        assert_eq!(rec.to_u64(), Some(line.receipt));
    }

    #[test]
    fn unknown_code_is_not_located() {
        let ea = ElectionAuthority::new(params(1, 2), 9);
        let out = ea.setup(SetupProfile::VcOnly);
        let vcb = &out.vc_inits[0].ballots[&SerialNo(0)];
        assert!(vcb.find_code(&VoteCode([0xAB; 20])).is_none());
    }

    #[test]
    fn msk_shares_reconstruct_and_match_commitment() {
        let p = params(1, 2);
        let ea = ElectionAuthority::new(p.clone(), 2);
        let out = ea.setup(SetupProfile::VcOnly);
        let shares: Vec<_> = out.vc_inits.iter().map(|i| i.msk_share).collect();
        for s in &shares {
            assert!(DealerVss::verify(
                &out.vc_inits[0].ea_key,
                &msk_share_context(&p.election_id),
                s
            ));
        }
        let k = p.vc_quorum();
        let msk_scalar = DealerVss::reconstruct(&shares[..k], k).unwrap();
        let bytes = msk_scalar.to_bytes();
        let mut msk = [0u8; 16];
        msk.copy_from_slice(&bytes[16..]);
        assert!(out.bb_init.msk_commitment.matches(&msk));
    }

    #[test]
    fn full_profile_bb_rows_decrypt_and_commit_correctly() {
        let p = params(2, 2);
        let ea = ElectionAuthority::new(p.clone(), 11);
        let out = ea.setup(SetupProfile::Full);
        // Recover msk from VC shares.
        let shares: Vec<_> = out.vc_inits.iter().map(|i| i.msk_share).collect();
        let k = p.vc_quorum();
        let msk_bytes = DealerVss::reconstruct(&shares[..k], k).unwrap().to_bytes();
        let mut msk = [0u8; 16];
        msk.copy_from_slice(&msk_bytes[16..]);
        for ballot in &out.ballots {
            let bb = &out.bb_init.ballots[&ballot.serial];
            for part in PartId::BOTH {
                let rows = &bb.parts[part.index()];
                assert_eq!(rows.len(), 2);
                for row in rows {
                    let code = votecode::decrypt_vote_code(&msk, &row.enc_code).unwrap();
                    // The decrypted code appears on the printed ballot, and
                    // the commitment encodes that line's option.
                    let line = ballot
                        .part(part)
                        .line_for_code(&code)
                        .expect("code printed");
                    assert_eq!(row.commitment.len(), 2);
                    // Trustee shares open the commitments to the unit vector.
                    for (j, ct) in row.commitment.iter().enumerate() {
                        let expected_bit = u64::from(j == line.option_index);
                        // Reconstruct opening from trustee shares.
                        let row_index = bb.parts[part.index()]
                            .iter()
                            .position(|r| std::ptr::eq(r, row))
                            .unwrap();
                        let bit_shares: Vec<Share> = out
                            .trustee_inits
                            .iter()
                            .map(|ti| Share {
                                index: ti.index + 1,
                                value: ti.ballots[&ballot.serial].parts[part.index()].rows
                                    [row_index]
                                    .cts[j]
                                    .bit,
                            })
                            .collect();
                        let rand_shares: Vec<Share> = out
                            .trustee_inits
                            .iter()
                            .map(|ti| Share {
                                index: ti.index + 1,
                                value: ti.ballots[&ballot.serial].parts[part.index()].rows
                                    [row_index]
                                    .cts[j]
                                    .rand,
                            })
                            .collect();
                        let ht = p.trustee_threshold;
                        let bit = shamir::reconstruct(&bit_shares[..ht], ht).unwrap();
                        let r = shamir::reconstruct(&rand_shares[..ht], ht).unwrap();
                        assert_eq!(bit.to_u64(), Some(expected_bit));
                        assert!(elgamal::verify_opening(
                            &out.bb_init.elgamal_pk,
                            ct,
                            &bit,
                            &r
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn zk_first_moves_verify_with_reconstructed_responses() {
        let p = params(1, 2);
        let ea = ElectionAuthority::new(p.clone(), 13);
        let out = ea.setup(SetupProfile::Full);
        let serial = SerialNo(0);
        let bb = &out.bb_init.ballots[&serial];
        let challenge = zkp::challenge_from_coins(b"test-challenge", &[true, false, true]);
        let ht = p.trustee_threshold;
        for part in PartId::BOTH {
            for (row_index, row) in bb.parts[part.index()].iter().enumerate() {
                // Reconstruct each ciphertext's OR response from trustee
                // affine-coefficient shares evaluated at the challenge.
                for (j, ct) in row.commitment.iter().enumerate() {
                    let mut resp_shares: Vec<[Share; 4]> = Vec::new();
                    for ti in &out.trustee_inits {
                        let cs = &ti.ballots[&serial].parts[part.index()].rows[row_index].cts[j];
                        let c = &cs.or_coeffs;
                        resp_shares.push([
                            Share {
                                index: ti.index + 1,
                                value: c[0] * challenge + c[1],
                            },
                            Share {
                                index: ti.index + 1,
                                value: c[2] * challenge + c[3],
                            },
                            Share {
                                index: ti.index + 1,
                                value: c[4] * challenge + c[5],
                            },
                            Share {
                                index: ti.index + 1,
                                value: c[6] * challenge + c[7],
                            },
                        ]);
                    }
                    let mut vals = [Scalar::ZERO; 4];
                    for (slot, val) in vals.iter_mut().enumerate() {
                        let shares: Vec<Share> = resp_shares.iter().map(|s| s[slot]).collect();
                        *val = shamir::reconstruct(&shares[..ht], ht).unwrap();
                    }
                    let resp = zkp::OrResponse {
                        c0: vals[0],
                        z0: vals[1],
                        c1: vals[2],
                        z1: vals[3],
                    };
                    assert!(zkp::or_verify(
                        &out.bb_init.elgamal_pk,
                        ct,
                        &row.or_first[j],
                        &resp,
                        &challenge
                    ));
                }
                // Sum proof.
                let sum_shares: Vec<Share> = out
                    .trustee_inits
                    .iter()
                    .map(|ti| {
                        let sc =
                            &ti.ballots[&serial].parts[part.index()].rows[row_index].sum_coeffs;
                        Share {
                            index: ti.index + 1,
                            value: sc[0] * challenge + sc[1],
                        }
                    })
                    .collect();
                let z = shamir::reconstruct(&sum_shares[..ht], ht).unwrap();
                assert!(zkp::sum_verify(
                    &out.bb_init.elgamal_pk,
                    &row.commitment,
                    &row.sum_first,
                    &challenge,
                    &z
                ));
            }
        }
    }

    #[test]
    fn vc_only_profile_skips_crypto_payloads() {
        let ea = ElectionAuthority::new(params(2, 2), 17);
        let out = ea.setup(SetupProfile::VcOnly);
        assert!(out.bb_init.ballots.is_empty());
        assert!(out.trustee_inits.iter().all(|t| t.ballots.is_empty()));
    }
}
