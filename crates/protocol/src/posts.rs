//! Data written to the Bulletin Board after election end: the agreed vote
//! set, `msk` shares, trustee posts, and the published result (§III-G/H).

use crate::ids::{PartId, SerialNo};
use crate::wire::Writer;
use ddemos_crypto::field::Scalar;
use ddemos_crypto::schnorr::Signature;
use ddemos_crypto::votecode::VoteCode;
use ddemos_crypto::vss::SignedShare;
use std::collections::BTreeMap;

/// The final, agreed set of voted `⟨serial, vote-code⟩` tuples.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VoteSet {
    /// Voted ballots, keyed by serial (sorted for canonical digests).
    pub entries: BTreeMap<SerialNo, VoteCode>,
}

impl VoteSet {
    /// Canonical digest over the sorted entries.
    pub fn digest(&self) -> [u8; 32] {
        let mut w = Writer::tagged("ddemos/vote-set-content/v1");
        w.put_u64(self.entries.len() as u64);
        for (serial, code) in &self.entries {
            w.put_u64(serial.0).put_array(&code.0);
        }
        w.digest()
    }

    /// Number of voted ballots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no ballot was voted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The signed vote set a VC node submits to the Bulletin Board subsystem
/// when vote-set consensus completes (§III-E step 6).
///
/// Defined here (rather than in `ddemos-vc`) because the codec encodes it:
/// a collector's `Deliver` output in a step trace. What crosses the node
/// boundary is its parts, as the collector's writes to the board.
#[derive(Clone, Debug)]
pub struct FinalizedVoteSet {
    /// The submitting node's index.
    pub node_index: u32,
    /// The agreed set of voted ballots.
    pub vote_set: VoteSet,
    /// Signature over [`crate::initdata::voteset_message`].
    pub signature: Signature,
    /// This node's `msk` share (EA-signed), released to BB nodes at end.
    pub msk_share: SignedShare,
}

/// A trustee's opening shares for every ciphertext of one ballot part
/// (posted for unused parts and for both parts of unvoted ballots).
/// Nothing signs them but the post: the BB interpolates `h_t` trustees'
/// shares and checks the result against the part's commitments.
#[derive(Clone, Debug)]
pub struct PartOpeningPost {
    /// Ballot serial.
    pub serial: SerialNo,
    /// Which part is being opened.
    pub part: PartId,
    /// `rows[r][j] = (bit share, randomness share)` for ciphertext `j` of
    /// row `r`.
    pub rows: Vec<Vec<(Scalar, Scalar)>>,
}

/// A trustee's ZK final-move shares for one ballot part (posted for the
/// *used* part: proves commitments well-formed without opening them).
#[derive(Clone, Debug)]
pub struct PartZkPost {
    /// Ballot serial.
    pub serial: SerialNo,
    /// The used part.
    pub part: PartId,
    /// `rows[r][j] = (c0, z0, c1, z1)` shares for ciphertext `j` of row `r`,
    /// evaluated at the published challenge.
    pub rows: Vec<Vec<[Scalar; 4]>>,
    /// Per-row sum-proof response shares.
    pub sum_responses: Vec<Scalar>,
}

/// A trustee's share of the opening of the homomorphic tally total.
#[derive(Clone, Debug)]
pub struct TallySharePost {
    /// `per_option[j] = (message share, randomness share)` for option `j`.
    pub per_option: Vec<(Scalar, Scalar)>,
}

/// Everything one trustee posts to a BB node after the election.
#[derive(Clone, Debug)]
pub struct TrusteePost {
    /// Trustee index (0-based; share evaluation point `index + 1`).
    pub trustee_index: u32,
    /// Openings for unused parts and unvoted ballots.
    pub openings: Vec<PartOpeningPost>,
    /// ZK final moves for used parts.
    pub zk: Vec<PartZkPost>,
    /// Share of the tally total opening.
    pub tally: TallySharePost,
}

/// The final published election result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionResult {
    /// Vote count per option.
    pub tally: Vec<u64>,
    /// Number of ballots included.
    pub ballots_counted: u64,
}

impl ElectionResult {
    /// Canonical digest (what BB readers majority-compare).
    pub fn digest(&self) -> [u8; 32] {
        let mut w = Writer::tagged("ddemos/result/v1");
        w.put_u64(self.ballots_counted);
        w.put_u32(self.tally.len() as u32);
        for t in &self.tally {
            w.put_u64(*t);
        }
        w.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_set_digest_is_order_independent() {
        let mut a = VoteSet::default();
        a.entries.insert(SerialNo(2), VoteCode([2; 20]));
        a.entries.insert(SerialNo(1), VoteCode([1; 20]));
        let mut b = VoteSet::default();
        b.entries.insert(SerialNo(1), VoteCode([1; 20]));
        b.entries.insert(SerialNo(2), VoteCode([2; 20]));
        assert_eq!(a.digest(), b.digest());
        b.entries.insert(SerialNo(3), VoteCode([3; 20]));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn result_digest_binds_tally() {
        let r1 = ElectionResult {
            tally: vec![10, 5],
            ballots_counted: 15,
        };
        let r2 = ElectionResult {
            tally: vec![10, 6],
            ballots_counted: 16,
        };
        assert_ne!(r1.digest(), r2.digest());
        assert_eq!(r1.digest(), r1.clone().digest());
    }
}
