//! # ddemos-trustee
//!
//! Trustees (§III-H): the human-held key-share component that produces the
//! election tally and the evidence for end-to-end verifiability, without
//! any single trustee (or any coalition below `h_t`) learning a voter's
//! choice.
//!
//! After the election, each trustee reads the agreed vote set and the
//! decrypted vote codes from a majority of BB nodes, validates them, and
//! posts back:
//!
//! * **openings** of every commitment in *unused* ballot parts and in both
//!   parts of unvoted ballots (its raw shares);
//! * **ZK final-move shares** for every commitment in *used* parts — its
//!   affine-coefficient shares evaluated at the voter-coin challenge, which
//!   is a valid Shamir share of the exact prover response;
//! * its additively-combined **share of the tally opening** (the sum over
//!   the cast rows' per-option openings).
//!
//! The BB reconstructs with `h_t` shares and verifies everything against
//! the perfectly-binding commitments.

#![warn(missing_docs)]

pub mod node;

use ddemos_bb::BbSnapshot;
use ddemos_crypto::field::Scalar;
use ddemos_crypto::schnorr::Signature;
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::{TrusteeBallotShares, TrusteeInit};
use ddemos_protocol::posts::{PartOpeningPost, PartZkPost, TallySharePost, TrusteePost};
use ddemos_protocol::{PartId, SerialNo};

/// Errors a trustee can hit while validating BB data or posting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrusteeError {
    /// The BB majority has not published the final vote set yet.
    VoteSetMissing,
    /// The BB majority has not published decrypted codes / challenge yet.
    CodesMissing,
    /// A cast vote code does not appear in any row of its ballot.
    CastCodeNotFound,
    /// The board lists a cast code at a row beyond its ballot part's.
    CastRowOutOfRange,
    /// Only `accepted` replicas, less than a BB majority, accepted the
    /// post: the others refused it or never answered.
    PostRefused {
        /// Replicas that accepted it.
        accepted: usize,
    },
    /// The transport shut down before the trustee could post.
    Disconnected,
}

impl std::fmt::Display for TrusteeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TrusteeError::VoteSetMissing => "final vote set not yet on the bulletin board",
            TrusteeError::CodesMissing => "decrypted vote codes not yet on the bulletin board",
            TrusteeError::CastCodeNotFound => "cast vote code not present in ballot rows",
            TrusteeError::CastRowOutOfRange => "cast vote code listed beyond the ballot rows",
            TrusteeError::PostRefused { accepted } => {
                return write!(f, "post accepted by only {accepted} BB replicas");
            }
            TrusteeError::Disconnected => "transport shut down before the post",
        };
        write!(f, "{msg}")
    }
}
impl std::error::Error for TrusteeError {}

/// One trustee.
pub struct Trustee {
    init: TrusteeInit,
    pool: Pool,
}

impl Trustee {
    /// Creates a trustee from its EA-dealt initialization data, on the
    /// default executor (`DDEMOS_THREADS` / available parallelism).
    pub fn new(init: TrusteeInit) -> Trustee {
        Trustee {
            init,
            pool: Pool::from_env(),
        }
    }

    /// Sets the worker count used by [`Trustee::produce_post`]'s
    /// per-ballot share processing.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Trustee {
        self.pool = Pool::new(threads);
        self
    }

    /// This trustee's index.
    pub fn index(&self) -> u32 {
        self.init.index
    }

    /// Produces this trustee's complete post from a majority-read BB
    /// snapshot, plus the signature authenticating it as a BB write.
    ///
    /// # Errors
    /// Fails if the snapshot does not yet carry the vote set, decrypted
    /// codes and challenge, or if it is internally inconsistent.
    pub fn produce_post(
        &self,
        snapshot: &BbSnapshot,
    ) -> Result<(TrusteePost, Signature), TrusteeError> {
        let vote_set = snapshot
            .vote_set
            .as_ref()
            .ok_or(TrusteeError::VoteSetMissing)?;
        let challenge = snapshot.challenge.ok_or(TrusteeError::CodesMissing)?;
        if snapshot.decrypted_codes.is_empty() {
            return Err(TrusteeError::CodesMissing);
        }
        let m = self.init.params.num_options;

        // Per-ballot share processing is independent, so it is mapped over
        // the pool; the map iterates in serial order and the pool preserves
        // input order, keeping the post byte-identical across thread counts.
        let ballots: Vec<(&SerialNo, &TrusteeBallotShares)> = self.init.ballots.iter().collect();
        struct BallotOut {
            openings: Vec<PartOpeningPost>,
            zk: Option<PartZkPost>,
            tally: Option<Vec<(Scalar, Scalar)>>,
        }
        let per_ballot: Vec<Result<BallotOut, TrusteeError>> =
            self.pool.map(&ballots, |&(&serial, shares)| {
                let opening = |part: PartId| PartOpeningPost {
                    serial,
                    part,
                    rows: shares.opening_pairs(part),
                };
                let Some(code) = vote_set.entries.get(&serial) else {
                    // Unvoted ballot: open both parts.
                    return Ok(BallotOut {
                        openings: PartId::BOTH.into_iter().map(opening).collect(),
                        zk: None,
                        tally: None,
                    });
                };
                // Locate the used part and cast row via the published
                // decrypted codes.
                let (used_part, cast_row) = PartId::BOTH
                    .into_iter()
                    .find_map(|part| {
                        let codes = snapshot
                            .decrypted_codes
                            .get(&(serial, part.index() as u8))?;
                        Some((part, codes.iter().position(|c| c == code)?))
                    })
                    .ok_or(TrusteeError::CastCodeNotFound)?;
                // Unused part: raw opening shares.
                let openings = vec![opening(used_part.other())];
                // Used part: ZK responses at the challenge.
                let used_shares = shares.part(used_part);
                let rows: Vec<Vec<[Scalar; 4]>> = used_shares
                    .iter()
                    .map(|row| {
                        row.cts
                            .iter()
                            .map(|ct| {
                                let [a0, a1, b0, b1, c0, c1, d0, d1] = ct.or_coeffs;
                                [
                                    a0 * challenge + a1,
                                    b0 * challenge + b1,
                                    c0 * challenge + c1,
                                    d0 * challenge + d1,
                                ]
                            })
                            .collect()
                    })
                    .collect();
                let sum_responses: Vec<Scalar> = used_shares
                    .iter()
                    .map(|row| {
                        let [s0, s1] = row.sum_coeffs;
                        s0 * challenge + s1
                    })
                    .collect();
                // Tally contribution: the cast row's per-option opening
                // shares join the (additively homomorphic) total. The row is
                // a position on the board, so it is checked, not trusted.
                let tally: Vec<(Scalar, Scalar)> = used_shares
                    .get(cast_row)
                    .ok_or(TrusteeError::CastRowOutOfRange)?
                    .cts
                    .iter()
                    .map(|ct| (ct.bit, ct.rand))
                    .collect();
                Ok(BallotOut {
                    openings,
                    zk: Some(PartZkPost {
                        serial,
                        part: used_part,
                        rows,
                        sum_responses,
                    }),
                    tally: Some(tally),
                })
            });

        let mut openings = Vec::new();
        let mut zk = Vec::new();
        let mut tally_sums: Vec<(Scalar, Scalar)> = vec![(Scalar::ZERO, Scalar::ZERO); m];
        for out in per_ballot {
            let out = out?;
            openings.extend(out.openings);
            zk.extend(out.zk);
            for ((bit, rand), sum) in out.tally.into_iter().flatten().zip(&mut tally_sums) {
                sum.0 += bit;
                sum.1 += rand;
            }
        }
        let post = TrusteePost {
            trustee_index: self.init.index,
            openings,
            zk,
            tally: TallySharePost {
                per_option: tally_sums,
            },
        };
        let digest = ddemos_protocol::codec::trustee_post_digest(&post);
        let signature = self.init.signing_key.sign(&digest);
        Ok((post, signature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_ea::{ElectionAuthority, SetupProfile};
    use ddemos_protocol::posts::VoteSet;
    use ddemos_protocol::ElectionParams;

    /// The board lists one code more for ballot 0's part A than the part
    /// has rows, and the cast code is that extra one.
    #[test]
    fn a_cast_code_beyond_the_ballots_rows_is_an_error() {
        let params = ElectionParams::new("trustee-rows", 2, 2, 4, 3, 3, 2, 0, 1000).unwrap();
        let setup = ElectionAuthority::new(params, 5).setup(SetupProfile::Full);
        let init = setup.trustee_inits[0].clone();
        let rows = init.ballots[&SerialNo(0)].part(PartId::A).len();
        let cast = VoteCode([0xC5; 20]);
        let mut codes = vec![VoteCode([0; 20]); rows];
        codes.push(cast);
        let mut board = BbSnapshot {
            vote_set: Some(VoteSet {
                entries: [(SerialNo(0), cast)].into(),
            }),
            challenge: Some(Scalar::ONE),
            ..BbSnapshot::default()
        };
        board.decrypted_codes.insert((SerialNo(0), 0), codes);
        assert_eq!(
            Trustee::new(init).produce_post(&board).map(|_| ()),
            Err(TrusteeError::CastRowOutOfRange)
        );
    }
}
