//! Messages of the vote-collection and vote-set-consensus protocols
//! (§III-E, Algorithm 1), including the batched binary consensus's
//! BVAL/AUX broadcasts.

use crate::ids::{ElectionId, NodeId, SerialNo};
use crate::initdata::endorsement_message;
use crate::params::ElectionParams;
use crate::posts::{FinalizedVoteSet, TrusteePost, VoteSet};
use crate::wire::Writer;
use ddemos_crypto::schnorr::{Signature, VerifyingKey};
use ddemos_crypto::sha256::sha256;
use ddemos_crypto::shamir::Share;
use ddemos_crypto::votecode::VoteCode;
use ddemos_crypto::vss::{ShareTag, SignedShare};
use std::sync::Arc;

/// A routed message with its source identity.
///
/// On the in-process `SimNet` transport the router stamps `from` with the
/// true sender (a node cannot spoof another's identity, mirroring the
/// paper's TLS-authenticated channels). On a raw TCP transport `from` is
/// sender-claimed; production deployments must layer mutual TLS
/// underneath, exactly as §V's prototype does.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender (authenticated on transports that can).
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Payload.
    pub msg: Msg,
}

/// Why a vote submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Submitted outside election hours.
    OutsideVotingHours,
    /// Unknown serial number.
    UnknownSerial,
    /// The vote code matches no row of the ballot.
    InvalidVoteCode,
    /// The ballot was already used with a *different* vote code.
    AlreadyVotedDifferentCode,
    /// The replica's journal device is full: it is read-only and refuses
    /// to accept new votes rather than record them non-durably (the voter
    /// retries against another node; the degraded node counts toward the
    /// `fv` fault budget).
    ReplicaDegraded,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            RejectReason::OutsideVotingHours => "outside voting hours",
            RejectReason::UnknownSerial => "unknown ballot serial",
            RejectReason::InvalidVoteCode => "vote code not on ballot",
            RejectReason::AlreadyVotedDifferentCode => "ballot already voted with another code",
            RejectReason::ReplicaDegraded => "replica degraded (journal device full): read-only",
        };
        write!(f, "{msg}")
    }
}

/// Outcome returned to the voter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VoteOutcome {
    /// The vote was recorded; here is the reconstructed receipt.
    Receipt(u64),
    /// The submission was rejected.
    Rejected(RejectReason),
}

/// A uniqueness certificate: `Nv − fv` endorsement signatures for one
/// `(serial, vote-code)` (§III-E).
#[derive(Clone, Debug)]
pub struct UCert {
    /// The endorsed ballot.
    pub serial: SerialNo,
    /// The endorsed vote code.
    pub vote_code: VoteCode,
    /// `(vc_node_index, signature)` pairs from distinct nodes.
    pub sigs: Vec<(u32, Signature)>,
}

impl UCert {
    /// Verifies the certificate: at least `Nv − fv` valid signatures from
    /// distinct VC nodes over the endorsement message.
    pub fn verify(
        &self,
        eid: &ElectionId,
        params: &ElectionParams,
        vc_keys: &[VerifyingKey],
    ) -> bool {
        let code_hash = sha256(&self.vote_code.0);
        let msg = endorsement_message(eid, self.serial, &code_hash);
        let mut seen = Vec::new();
        let mut valid = 0usize;
        for (idx, sig) in &self.sigs {
            let idx = *idx as usize;
            if idx >= vc_keys.len() || seen.contains(&idx) {
                continue;
            }
            if vc_keys[idx].verify(&msg, sig) {
                seen.push(idx);
                valid += 1;
                if valid >= params.vc_quorum() {
                    return true;
                }
            }
        }
        false
    }

    /// A stable digest identifying this certificate's (serial, code) pair.
    pub fn key_digest(&self) -> [u8; 32] {
        let mut w = Writer::tagged("ddemos/ucert-key/v1");
        w.put_u64(self.serial.0).put_array(&self.vote_code.0);
        w.digest()
    }
}

/// One node's contribution to ANNOUNCE dispersal at election end: the vote
/// code it saw for a ballot (if any) with its certificate.
#[derive(Clone, Debug)]
pub struct AnnounceEntry {
    /// Ballot serial.
    pub serial: SerialNo,
    /// The locally known vote code + UCERT, or `None` for "no vote seen".
    pub vote: Option<(VoteCode, Arc<UCert>)>,
}

/// Step number inside a binary-consensus round (BVAL or AUX).
pub type ConsensusStep = u8;

/// The value vector broadcast in one consensus step, covering every ballot
/// slot in the batch. `None` (⊥) marks a slot the message carries no
/// value for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConsensusPayload {
    /// Consensus round (0-based).
    pub round: u32,
    /// Step within the round (BVAL or AUX).
    pub step: ConsensusStep,
    /// Per-slot values.
    pub values: Vec<Option<bool>>,
}

/// A consensus protocol message (the sender is authenticated by the
/// network layer envelope).
#[derive(Clone, Debug)]
pub struct ConsensusMsg {
    /// The broadcast payload (`step` is BVAL/AUX in the binary consensus).
    pub payload: Arc<ConsensusPayload>,
}

/// An authenticated write sent to a Bulletin Board replica over the
/// network: `ddemos_bb::BbNode`'s typed write methods in envelope form.
#[derive(Clone, Debug)]
pub enum BbWriteMsg {
    /// A VC node's final vote set (counts toward the `fv+1` threshold).
    VoteSet {
        /// Submitting VC node index.
        from_vc: u32,
        /// The submitted set.
        set: VoteSet,
        /// The VC node's signature over the set digest.
        sig: Signature,
    },
    /// A VC node's `msk` share (EA-signed).
    MskShare {
        /// The share.
        share: SignedShare,
    },
    /// A trustee's post (openings, ZK final moves, tally shares).
    TrusteePost {
        /// The post (shared — the heavy payload).
        post: Arc<TrusteePost>,
        /// The trustee's signature over the post digest.
        sig: Signature,
    },
}

/// Outcome of a relayed BB write (mirrors `ddemos_bb::WriteError`, which
/// cannot be named here without a dependency cycle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BbWriteOutcome {
    /// The write verified and was accepted (or was an idempotent repeat).
    Accepted,
    /// The writer's signature (or the EA's, on relayed data) is invalid.
    BadSignature,
    /// The writer index is unknown.
    UnknownWriter,
    /// The submitted data contradicts already-verified state.
    Inconsistent,
    /// The node is not yet in the phase this write belongs to.
    WrongPhase,
    /// The replica's journal device is full: it is read-only and refuses
    /// new writes rather than acknowledge them non-durably.
    ReadOnly,
}

/// What a BB replica made of one chunk of its deal ([`Msg::BbDeal`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BbDealOutcome {
    /// The chunk was taken; the deal is not complete yet.
    Taken,
    /// The chunk completed the deal: the replica now serves its board.
    Dealt,
    /// The chunk was refused (malformed, out of order, for another
    /// election, or not from the dealer) and changed nothing.
    Refused,
}

/// All messages exchanged on the simulated network.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Voter → VC: cast `vote_code` for ballot `serial`.
    Vote {
        /// Client-chosen correlation id.
        request_id: u64,
        /// Ballot serial.
        serial: SerialNo,
        /// Submitted vote code.
        vote_code: VoteCode,
    },
    /// VC → voter: outcome of a VOTE request.
    VoteReply {
        /// Correlation id from the request.
        request_id: u64,
        /// Ballot serial.
        serial: SerialNo,
        /// Result.
        outcome: VoteOutcome,
    },
    /// Responder VC → all VC: request endorsements (Algorithm 1 line 8).
    Endorse {
        /// Ballot serial.
        serial: SerialNo,
        /// Vote code being endorsed.
        vote_code: VoteCode,
    },
    /// VC → responder: a signed endorsement.
    Endorsement {
        /// Ballot serial.
        serial: SerialNo,
        /// Vote code endorsed.
        vote_code: VoteCode,
        /// Signature over [`endorsement_message`].
        signature: Signature,
    },
    /// VC → all VC: disclose a receipt share under a UCERT
    /// (Algorithm 1 line 13).
    VoteP {
        /// Ballot serial.
        serial: SerialNo,
        /// Vote code.
        vote_code: VoteCode,
        /// The sender's receipt share for the matching row.
        share: Share,
        /// The EA's tag on `share` for the recipient.
        tag: ShareTag,
        /// The uniqueness certificate justifying disclosure.
        ucert: Arc<UCert>,
    },
    /// Election-end dispersal of known votes (vote-set consensus step 1).
    Announce {
        /// One entry per registered ballot (batched).
        entries: Arc<Vec<AnnounceEntry>>,
    },
    /// Ask peers for the vote code of a ballot decided 1 but locally
    /// unknown (vote-set consensus step 5b).
    RecoverRequest {
        /// Ballot serial.
        serial: SerialNo,
    },
    /// Answer to a RECOVER-REQUEST with the code and its certificate.
    RecoverResponse {
        /// Ballot serial.
        serial: SerialNo,
        /// The committed vote code.
        vote_code: VoteCode,
        /// Its uniqueness certificate.
        ucert: Arc<UCert>,
    },
    /// Batched binary consensus traffic (BVAL/AUX broadcasts).
    Consensus(ConsensusMsg),
    /// Harness control signal: the node just power-cycled and must drop
    /// all volatile state, rebuilding from its durable journal (snapshot +
    /// WAL replay). Injected by the network's `CrashAmnesia` fault as a
    /// *self-addressed* envelope — receivers must ignore it unless
    /// `from == to`, so no peer can remote-reboot a node.
    Amnesia,
    /// Harness control signal: close the polls now (the node behaves as if
    /// its clock passed `Tend`). Drivers accept it only from Client/EA
    /// identities — a VC or BB peer cannot end another node's election.
    ClosePolls,
    /// Harness control signal: stop the node's driver loop (clean
    /// multi-process teardown). Same acceptance rule as
    /// [`Msg::ClosePolls`].
    Shutdown,
    /// VC → coordinator: the node's finalized vote set (the envelope form
    /// of the in-process result channel).
    Finalized(FinalizedVoteSet),
    /// Writer → BB replica: an authenticated write.
    BbWrite {
        /// Client-chosen correlation id.
        request_id: u64,
        /// The write.
        write: BbWriteMsg,
    },
    /// BB replica → writer: outcome of a [`Msg::BbWrite`].
    BbWriteReply {
        /// Correlation id from the request.
        request_id: u64,
        /// Verification outcome.
        outcome: BbWriteOutcome,
    },
    /// Reader → BB replica: request the public snapshot.
    BbReadRequest {
        /// Client-chosen correlation id.
        request_id: u64,
    },
    /// Dealer → BB replica: one chunk of the replica's public
    /// initialization data ([`crate::deal`]). The dealer is the EA's
    /// stand-in, [`crate::COORDINATOR`]; a replica refuses chunks from
    /// anyone else.
    BbDeal {
        /// Correlation id.
        request_id: u64,
        /// The encoded chunk (shared: every replica gets the same bytes).
        chunk: Arc<Vec<u8>>,
    },
    /// BB replica → dealer: what became of a [`Msg::BbDeal`] chunk.
    BbDealReply {
        /// Correlation id from the request.
        request_id: u64,
        /// The chunk's fate.
        outcome: BbDealOutcome,
    },
    /// BB replica → reader: the snapshot, encoded with
    /// `ddemos_bb`'s canonical snapshot codec (opaque at this layer).
    BbReadResponse {
        /// Correlation id from the request.
        request_id: u64,
        /// Encoded `BbSnapshot` (shared — responses can be large).
        snapshot: Arc<Vec<u8>>,
    },
}

impl Msg {
    /// The variant's static name — the per-message label used by metrics
    /// and profiling. Exhaustive on purpose: adding a variant without a
    /// label is a compile error.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Vote { .. } => "Vote",
            Msg::VoteReply { .. } => "VoteReply",
            Msg::Endorse { .. } => "Endorse",
            Msg::Endorsement { .. } => "Endorsement",
            Msg::VoteP { .. } => "VoteP",
            Msg::Announce { .. } => "Announce",
            Msg::RecoverRequest { .. } => "RecoverRequest",
            Msg::RecoverResponse { .. } => "RecoverResponse",
            Msg::Consensus(_) => "Consensus",
            Msg::Amnesia => "Amnesia",
            Msg::ClosePolls => "ClosePolls",
            Msg::Shutdown => "Shutdown",
            Msg::Finalized(_) => "Finalized",
            Msg::BbWrite { .. } => "BbWrite",
            Msg::BbWriteReply { .. } => "BbWriteReply",
            Msg::BbReadRequest { .. } => "BbReadRequest",
            Msg::BbReadResponse { .. } => "BbReadResponse",
            Msg::BbDeal { .. } => "BbDeal",
            Msg::BbDealReply { .. } => "BbDealReply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::schnorr::SigningKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ElectionParams, Vec<SigningKey>, Vec<VerifyingKey>) {
        let params = ElectionParams::new("t", 10, 2, 4, 1, 3, 2, 0, 1000).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
        let vks = keys.iter().map(|k| k.verifying_key()).collect();
        (params, keys, vks)
    }

    fn make_ucert(
        eid: &ElectionId,
        keys: &[SigningKey],
        signers: &[usize],
        serial: SerialNo,
        code: VoteCode,
    ) -> UCert {
        let msg = endorsement_message(eid, serial, &sha256(&code.0));
        UCert {
            serial,
            vote_code: code,
            sigs: signers
                .iter()
                .map(|&i| (i as u32, keys[i].sign(&msg)))
                .collect(),
        }
    }

    #[test]
    fn ucert_accepts_quorum() {
        let (params, keys, vks) = setup();
        let eid = params.election_id;
        let code = VoteCode([7; 20]);
        // Nv=4, fv=1 => quorum 3.
        let uc = make_ucert(&eid, &keys, &[0, 1, 2], SerialNo(1), code);
        assert!(uc.verify(&eid, &params, &vks));
    }

    #[test]
    fn ucert_rejects_below_quorum_or_duplicates() {
        let (params, keys, vks) = setup();
        let eid = params.election_id;
        let code = VoteCode([7; 20]);
        let uc = make_ucert(&eid, &keys, &[0, 1], SerialNo(1), code);
        assert!(!uc.verify(&eid, &params, &vks));
        // Duplicated signer does not count twice.
        let mut dup = make_ucert(&eid, &keys, &[0, 1], SerialNo(1), code);
        dup.sigs.push(dup.sigs[0]);
        assert!(!dup.verify(&eid, &params, &vks));
    }

    #[test]
    fn ucert_rejects_wrong_code_or_forged_sig() {
        let (params, keys, vks) = setup();
        let eid = params.election_id;
        let code = VoteCode([7; 20]);
        let mut uc = make_ucert(&eid, &keys, &[0, 1, 2], SerialNo(1), code);
        uc.vote_code = VoteCode([8; 20]);
        assert!(!uc.verify(&eid, &params, &vks));
        // Out-of-range signer index ignored.
        let mut uc2 = make_ucert(&eid, &keys, &[0, 1], SerialNo(1), code);
        uc2.sigs.push((99, keys[2].sign(b"garbage")));
        assert!(!uc2.verify(&eid, &params, &vks));
    }
}
