//! Per-component initialization data produced by the Election Authority
//! (§III-D), plus the canonical signature contexts that bind shares and
//! endorsements to their election, ballot, part and row.

use crate::ids::{ElectionId, PartId, SerialNo};
use crate::params::ElectionParams;
use crate::wire::Writer;
use ddemos_crypto::elgamal::{Ciphertext, PublicKey};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::hmac::HmacKey;
use ddemos_crypto::schnorr::{SigningKey, VerifyingKey};
use ddemos_crypto::shamir::Share;
use ddemos_crypto::votecode::{MskCommitment, VoteCodeHash};
use ddemos_crypto::vss::{ShareTag, SignedShare};
use ddemos_crypto::zkp::{CpFirstMove, OrFirstMove};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Signature contexts
// ---------------------------------------------------------------------------

/// Canonical message a VC node signs to ENDORSE a vote code for a ballot.
pub fn endorsement_message(eid: &ElectionId, serial: SerialNo, code_hash: &[u8; 32]) -> Vec<u8> {
    let mut w = Writer::tagged("ddemos/endorse/v1");
    w.put_array(&eid.0).put_u64(serial.0).put_array(code_hash);
    w.into_bytes()
}

/// Context binding a receipt share to (election, serial, part, row): what
/// its tags ([`ddemos_crypto::vss::DealerVss::tag`]) are made over.
pub fn receipt_share_context(
    eid: &ElectionId,
    serial: SerialNo,
    part: PartId,
    row: usize,
) -> Vec<u8> {
    let mut w = Writer::tagged("ddemos/receipt-share/v1");
    w.put_array(&eid.0)
        .put_u64(serial.0)
        .put_u8(part.index() as u8)
        .put_u32(row as u32);
    w.into_bytes()
}

/// Context binding an `msk` share to the election.
pub fn msk_share_context(eid: &ElectionId) -> Vec<u8> {
    let mut w = Writer::tagged("ddemos/msk-share/v1");
    w.put_array(&eid.0);
    w.into_bytes()
}

/// Canonical message a VC node signs over its final vote-set digest.
pub fn voteset_message(eid: &ElectionId, digest: &[u8; 32]) -> Vec<u8> {
    let mut w = Writer::tagged("ddemos/vote-set/v1");
    w.put_array(&eid.0).put_array(digest);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Vote collector initialization
// ---------------------------------------------------------------------------

/// One (shuffled) row of a VC node's view of a ballot part: the hashed vote
/// code plus this node's receipt share and the EA's tags on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcRow {
    /// `(H, salt)` with `H = SHA256(vote-code ‖ salt)`.
    pub code_hash: VoteCodeHash,
    /// This node's `(Nv−fv, Nv)` receipt share.
    pub receipt_share: Share,
    /// The EA's tag on `receipt_share` for every *other* collector, in
    /// node order, under that collector's [`VcInit::tag_key`] (see
    /// [`VcRow::tag_for`]).
    pub tags: Vec<ShareTag>,
}

impl VcRow {
    /// The tag collector `holder`'s share carries for collector `to`
    /// (`None` for `holder` itself, which checks nothing of its own).
    pub fn tag_for(&self, holder: u32, to: u32) -> Option<&ShareTag> {
        let slot = match to.cmp(&holder) {
            std::cmp::Ordering::Less => to,
            std::cmp::Ordering::Equal => return None,
            std::cmp::Ordering::Greater => to - 1,
        };
        self.tags.get(slot as usize)
    }
}

/// A VC node's view of one ballot (rows shuffled per part).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcBallot {
    /// Rows for parts A and B.
    pub parts: [Vec<VcRow>; 2],
}

impl VcBallot {
    /// Locates the (part, row) whose commitment matches `code`
    /// (`Ballot::VerifyVoteCode`, Algorithm 1 line 37).
    pub fn find_code(&self, code: &ddemos_crypto::votecode::VoteCode) -> Option<(PartId, usize)> {
        for part in PartId::BOTH {
            for (row, entry) in self.parts[part.index()].iter().enumerate() {
                if entry.code_hash.matches(code) {
                    return Some((part, row));
                }
            }
        }
        None
    }
}

/// Full initialization data for one VC node.
#[derive(Clone, Debug)]
pub struct VcInit {
    /// Election parameters.
    pub params: ElectionParams,
    /// This node's index (0-based; its share index is `index + 1`).
    pub node_index: u32,
    /// This node's signing key (generated by the EA).
    pub signing_key: SigningKey,
    /// All VC nodes' verification keys.
    pub vc_keys: Vec<VerifyingKey>,
    /// This node's tag key: the other collectors' receipt shares carry
    /// EA tags under it.
    pub tag_key: HmacKey,
    /// This node's share of the vote-code master key `msk`, EA-signed
    /// (BB replicas check it).
    pub msk_share: SignedShare,
    /// Per-ballot rows.
    pub ballots: BTreeMap<SerialNo, VcBallot>,
}

// ---------------------------------------------------------------------------
// Bulletin board initialization
// ---------------------------------------------------------------------------

/// One (shuffled) BB row: the encrypted vote code and its cryptographic
/// payload (committed option encoding + ZK first moves).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BbRow {
    /// `[vote-code]_msk` (AES-128-CBC$, IV-prefixed).
    pub enc_code: Vec<u8>,
    /// The option-encoding commitment: `m` lifted ElGamal ciphertexts.
    pub commitment: Vec<Ciphertext>,
    /// OR-proof first moves, one per ciphertext.
    pub or_first: Vec<OrFirstMove>,
    /// Sum-proof (row encrypts exactly one 1) first move.
    pub sum_first: CpFirstMove,
}

/// A BB node's view of one ballot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BbBallot {
    /// Rows for parts A and B (same shuffle as the VC rows).
    pub parts: [Vec<BbRow>; 2],
}

/// Initialization data for BB nodes (identical across nodes, hence `Arc`).
#[derive(Clone, Debug)]
pub struct BbInit {
    /// Election parameters.
    pub params: ElectionParams,
    /// `H_msk` — commitment authenticating a reconstructed master key.
    pub msk_commitment: MskCommitment,
    /// ElGamal public key the option encodings are committed under.
    pub elgamal_pk: PublicKey,
    /// The EA's verification key.
    pub ea_key: VerifyingKey,
    /// VC verification keys (authenticate vote-set and msk-share writes).
    pub vc_keys: Vec<VerifyingKey>,
    /// Trustee verification keys (authenticate trustee posts).
    pub trustee_keys: Vec<VerifyingKey>,
    /// Per-ballot payload rows (empty under the VC-only setup profile).
    pub ballots: Arc<BTreeMap<SerialNo, BbBallot>>,
}

// ---------------------------------------------------------------------------
// Trustee initialization
// ---------------------------------------------------------------------------

/// A trustee's shares for one ciphertext of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrusteeCtShares {
    /// Share of the plaintext bit.
    pub bit: Scalar,
    /// Share of the encryption randomness.
    pub rand: Scalar,
    /// Shares of the eight affine OR-proof coefficients
    /// (`[α₀,β₀,γ₀,δ₀,α₁,β₁,γ₁,δ₁]`).
    pub or_coeffs: [Scalar; 8],
}

/// A trustee's shares for one row (one option-encoding commitment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrusteeRowShares {
    /// Per-ciphertext shares.
    pub cts: Vec<TrusteeCtShares>,
    /// Shares of the sum-proof affine coefficients `[γ, δ]`.
    pub sum_coeffs: [Scalar; 2],
}

/// A trustee's shares for one ballot: the rows of parts A and B.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrusteeBallotShares {
    /// Parts A and B.
    pub parts: [Vec<TrusteeRowShares>; 2],
}

impl TrusteeBallotShares {
    /// The per-row shares of one part.
    pub fn part(&self, part: PartId) -> &[TrusteeRowShares] {
        &self.parts[part.index()]
    }

    /// The `(bit, rand)` opening shares of one part, per row and
    /// ciphertext.
    pub fn opening_pairs(&self, part: PartId) -> Vec<Vec<(Scalar, Scalar)>> {
        self.part(part)
            .iter()
            .map(|row| row.cts.iter().map(|ct| (ct.bit, ct.rand)).collect())
            .collect()
    }
}

/// Full initialization data for one trustee.
#[derive(Clone, Debug)]
pub struct TrusteeInit {
    /// Election parameters.
    pub params: ElectionParams,
    /// Trustee index (0-based; share evaluation point is `index + 1`).
    pub index: u32,
    /// Signing key for authenticated BB writes.
    pub signing_key: SigningKey,
    /// ElGamal public key of the option-encoding commitments.
    pub elgamal_pk: PublicKey,
    /// Per-ballot shares.
    pub ballots: BTreeMap<SerialNo, TrusteeBallotShares>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_are_distinct() {
        let e = ElectionId::from_label("x");
        let a = receipt_share_context(&e, SerialNo(1), PartId::A, 0);
        let b = receipt_share_context(&e, SerialNo(1), PartId::A, 1);
        let c = receipt_share_context(&e, SerialNo(1), PartId::B, 0);
        let d = receipt_share_context(&e, SerialNo(2), PartId::A, 0);
        assert!(a != b && a != c && a != d && b != c);
        let e2 = ElectionId::from_label("y");
        assert_ne!(a, receipt_share_context(&e2, SerialNo(1), PartId::A, 0));
    }

    #[test]
    fn endorsement_message_binds_all_fields() {
        let e = ElectionId::from_label("x");
        let m1 = endorsement_message(&e, SerialNo(5), &[1; 32]);
        let m2 = endorsement_message(&e, SerialNo(6), &[1; 32]);
        let m3 = endorsement_message(&e, SerialNo(5), &[2; 32]);
        assert!(m1 != m2 && m1 != m3);
    }
}
