//! Canonical wire codecs for every protocol structure that crosses a
//! durability or transport boundary.
//!
//! Two families share the same primitive pairs:
//!
//! * **Persisted structures** (WAL records and snapshots in
//!   `ddemos-storage`) — so a node's snapshot+WAL replay reconstructs
//!   byte-identical state.
//! * **Transport messages** — the full [`Msg`]/[`Envelope`] enum
//!   ([`put_msg`]/[`get_msg`], [`put_envelope`]/[`get_envelope`]), which
//!   `ddemos-net`'s authenticated channels carry on real sockets as the
//!   payload of their DATA frames, CRC-checksummed
//!   ([`encode_envelope_frame`]/[`decode_envelope_frame`]).
//!
//! Each codec is a `put_*`/`get_*` pair; compound structures compose the
//! primitive pairs, so round-trip property tests over the compounds cover
//! the whole family. Decoders are total: malformed input yields a
//! [`WireError`], never a panic — this is the path attacker-controlled
//! socket bytes take.

use crate::ids::{ElectionId, NodeId, NodeKind, PartId, SerialNo};
use crate::messages::{
    AnnounceEntry, BbDealOutcome, BbWriteMsg, BbWriteOutcome, ConsensusMsg, ConsensusPayload,
    Envelope, Msg, RejectReason, UCert, VoteOutcome,
};
use crate::params::ElectionParams;
use crate::posts::{
    FinalizedVoteSet, PartOpeningPost, PartZkPost, TallySharePost, TrusteePost, VoteSet,
};
use crate::wire::{crc32, Reader, WireError, Writer};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::schnorr::Signature;
use ddemos_crypto::sha256::Sha256;
use ddemos_crypto::shamir::Share;
use ddemos_crypto::votecode::VoteCode;
use ddemos_crypto::vss::SignedShare;
use std::sync::Arc;

/// Sanity bound on decoded vector lengths (a corrupted length prefix must
/// not trigger a huge allocation before the content check fails).
const MAX_VEC: u32 = 1 << 24;

fn get_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let len = r.get_u32()?;
    if len > MAX_VEC {
        return Err(WireError::BadLength);
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Encodes a field scalar (32 canonical bytes).
pub fn put_scalar(w: &mut Writer, s: &Scalar) {
    w.put_array(&s.to_bytes());
}

/// Decodes a field scalar.
///
/// # Errors
/// [`WireError::BadValue`] for non-canonical encodings.
pub fn get_scalar(r: &mut Reader<'_>) -> Result<Scalar, WireError> {
    Scalar::from_bytes(&r.get_array::<32>()?).ok_or(WireError::BadValue)
}

/// The bytes of an encoded Schnorr signature.
const SIGNATURE_LEN: usize = 65;

/// Encodes a Schnorr signature ([`SIGNATURE_LEN`] bytes).
pub fn put_signature(w: &mut Writer, sig: &Signature) {
    w.put_array(&sig.to_bytes());
}

/// Decodes a Schnorr signature.
///
/// Decoding is structural only: the commitment point stays compressed
/// (its square root deferred to first verification, where the verified
/// cache makes it free on re-delivery), so decode stays off the crypto
/// hot path. An off-curve `R` with a well-formed prefix therefore
/// surfaces as a verification failure, not a codec error.
///
/// # Errors
/// [`WireError::BadValue`] for malformed prefixes or non-canonical
/// scalars.
pub fn get_signature(r: &mut Reader<'_>) -> Result<Signature, WireError> {
    Signature::from_bytes(&r.get_array::<SIGNATURE_LEN>()?).ok_or(WireError::BadValue)
}

/// Encodes a vote code (20 bytes).
pub fn put_vote_code(w: &mut Writer, code: &VoteCode) {
    w.put_array(&code.0);
}

/// Decodes a vote code.
///
/// # Errors
/// [`WireError::UnexpectedEnd`] if the input is exhausted.
pub fn get_vote_code(r: &mut Reader<'_>) -> Result<VoteCode, WireError> {
    Ok(VoteCode(r.get_array::<20>()?))
}

/// Encodes a Shamir share.
pub fn put_share(w: &mut Writer, s: &Share) {
    w.put_u32(s.index);
    put_scalar(w, &s.value);
}

/// Decodes a Shamir share.
///
/// # Errors
/// Propagates primitive decode failures.
pub fn get_share(r: &mut Reader<'_>) -> Result<Share, WireError> {
    Ok(Share {
        index: r.get_u32()?,
        value: get_scalar(r)?,
    })
}

/// Encodes a dealer-signed share.
pub fn put_signed_share(w: &mut Writer, s: &SignedShare) {
    put_share(w, &s.share);
    put_signature(w, &s.signature);
}

/// Decodes a dealer-signed share.
///
/// # Errors
/// Propagates primitive decode failures.
pub fn get_signed_share(r: &mut Reader<'_>) -> Result<SignedShare, WireError> {
    Ok(SignedShare {
        share: get_share(r)?,
        signature: get_signature(r)?,
    })
}

/// Encodes a ballot part id as one byte.
pub fn put_part(w: &mut Writer, part: PartId) {
    w.put_u8(part.index() as u8);
}

/// Decodes a ballot part id.
///
/// # Errors
/// [`WireError::BadValue`] for bytes other than 0 or 1.
pub fn get_part(r: &mut Reader<'_>) -> Result<PartId, WireError> {
    match r.get_u8()? {
        0 => Ok(PartId::A),
        1 => Ok(PartId::B),
        _ => Err(WireError::BadValue),
    }
}

// ---------------------------------------------------------------------------
// Compounds
// ---------------------------------------------------------------------------

/// Encodes election parameters.
pub fn put_params(w: &mut Writer, p: &ElectionParams) {
    w.put_array(&p.election_id.0)
        .put_u64(p.num_ballots)
        .put_u32(p.num_options as u32)
        .put_u32(p.num_vc as u32)
        .put_u32(p.num_bb as u32)
        .put_u32(p.num_trustees as u32)
        .put_u32(p.trustee_threshold as u32)
        .put_u64(p.start_ms)
        .put_u64(p.end_ms)
        .put_u32(p.option_labels.len() as u32);
    for label in &p.option_labels {
        w.put_bytes(label.as_bytes());
    }
}

/// Decodes election parameters.
///
/// # Errors
/// [`WireError::BadValue`] for labels that are not UTF-8 and for
/// parameters [`ElectionParams::validate`] refuses.
pub fn get_params(r: &mut Reader<'_>) -> Result<ElectionParams, WireError> {
    let mut params = ElectionParams {
        election_id: ElectionId(r.get_array()?),
        num_ballots: r.get_u64()?,
        num_options: r.get_u32()? as usize,
        num_vc: r.get_u32()? as usize,
        num_bb: r.get_u32()? as usize,
        num_trustees: r.get_u32()? as usize,
        trustee_threshold: r.get_u32()? as usize,
        start_ms: r.get_u64()?,
        end_ms: r.get_u64()?,
        option_labels: Vec::new(),
    };
    let labels = get_len(r)?;
    params.option_labels = (0..labels)
        .map(|_| String::from_utf8(r.get_bytes()?.to_vec()).map_err(|_| WireError::BadValue))
        .collect::<Result<_, _>>()?;
    params.validate().map_err(|_| WireError::BadValue)?;
    Ok(params)
}

/// Encodes a uniqueness certificate.
pub fn put_ucert(w: &mut Writer, ucert: &UCert) {
    w.put_u64(ucert.serial.0);
    put_vote_code(w, &ucert.vote_code);
    w.put_u32(ucert.sigs.len() as u32);
    for (idx, sig) in &ucert.sigs {
        w.put_u32(*idx);
        put_signature(w, sig);
    }
}

/// Decodes a uniqueness certificate.
///
/// # Errors
/// Propagates primitive decode failures.
pub fn get_ucert(r: &mut Reader<'_>) -> Result<UCert, WireError> {
    let serial = SerialNo(r.get_u64()?);
    let vote_code = get_vote_code(r)?;
    let n = get_len(r)?;
    let mut sigs = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.get_u32()?;
        sigs.push((idx, get_signature(r)?));
    }
    Ok(UCert {
        serial,
        vote_code,
        sigs,
    })
}

/// Encodes a vote set.
pub fn put_vote_set(w: &mut Writer, set: &VoteSet) {
    w.put_u64(set.entries.len() as u64);
    for (serial, code) in &set.entries {
        w.put_u64(serial.0);
        put_vote_code(w, code);
    }
}

/// Decodes a vote set.
///
/// # Errors
/// Propagates primitive decode failures.
pub fn get_vote_set(r: &mut Reader<'_>) -> Result<VoteSet, WireError> {
    let n = r.get_u64()?;
    if n > u64::from(MAX_VEC) {
        return Err(WireError::BadLength);
    }
    let mut set = VoteSet::default();
    for _ in 0..n {
        let serial = SerialNo(r.get_u64()?);
        set.entries.insert(serial, get_vote_code(r)?);
    }
    Ok(set)
}

fn put_scalar_pairs(w: &mut Writer, rows: &[Vec<(Scalar, Scalar)>]) {
    w.put_u32(rows.len() as u32);
    for row in rows {
        w.put_u32(row.len() as u32);
        for (a, b) in row {
            put_scalar(w, a);
            put_scalar(w, b);
        }
    }
}

fn get_scalar_pairs(r: &mut Reader<'_>) -> Result<Vec<Vec<(Scalar, Scalar)>>, WireError> {
    let n = get_len(r)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let m = get_len(r)?;
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            row.push((get_scalar(r)?, get_scalar(r)?));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Encodes a trustee post (openings + ZK responses + tally share).
pub fn put_trustee_post(w: &mut Writer, post: &TrusteePost) {
    w.put_u32(post.trustee_index);
    w.put_u32(post.openings.len() as u32);
    for o in &post.openings {
        w.put_u64(o.serial.0);
        put_part(w, o.part);
        put_scalar_pairs(w, &o.rows);
    }
    w.put_u32(post.zk.len() as u32);
    for z in &post.zk {
        w.put_u64(z.serial.0);
        put_part(w, z.part);
        w.put_u32(z.rows.len() as u32);
        for row in &z.rows {
            w.put_u32(row.len() as u32);
            for ct in row {
                for s in ct {
                    put_scalar(w, s);
                }
            }
        }
        w.put_u32(z.sum_responses.len() as u32);
        for s in &z.sum_responses {
            put_scalar(w, s);
        }
    }
    w.put_u32(post.tally.per_option.len() as u32);
    for (m, rr) in &post.tally.per_option {
        put_scalar(w, m);
        put_scalar(w, rr);
    }
}

/// The domain tag of [`trustee_post_digest`].
const TRUSTEE_POST_TAG: &[u8] = b"ddemos/trustee-post/v2";

/// The digest a trustee signs its post under: SHA-256 over a domain tag
/// and the post's [`put_trustee_post`] bytes, so the signature binds the
/// row and ciphertext counts as well as the scalars.
pub fn trustee_post_digest(post: &TrusteePost) -> [u8; 32] {
    let mut w = Writer::new();
    put_trustee_post(&mut w, post);
    encoded_post_digest(w.bytes())
}

/// The [`trustee_post_digest`] of the post inside a trustee post's
/// [`put_bb_write`] bytes, hashed where it lies; `None` for the bytes of
/// any other write.
pub fn written_post_digest(write: &[u8]) -> Option<[u8; 32]> {
    let Some((&BBW_TRUSTEE_POST, post)) = write.split_first() else {
        return None;
    };
    let post = post.get(..post.len().checked_sub(SIGNATURE_LEN)?)?;
    Some(encoded_post_digest(post))
}

fn encoded_post_digest(post: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(TRUSTEE_POST_TAG.len() as u32).to_be_bytes());
    h.update(TRUSTEE_POST_TAG);
    h.update(post);
    h.finalize()
}

/// Decodes a trustee post.
///
/// # Errors
/// Propagates primitive decode failures.
pub fn get_trustee_post(r: &mut Reader<'_>) -> Result<TrusteePost, WireError> {
    let trustee_index = r.get_u32()?;
    let n_open = get_len(r)?;
    let mut openings = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        let serial = SerialNo(r.get_u64()?);
        let part = get_part(r)?;
        let rows = get_scalar_pairs(r)?;
        openings.push(PartOpeningPost { serial, part, rows });
    }
    let n_zk = get_len(r)?;
    let mut zk = Vec::with_capacity(n_zk);
    for _ in 0..n_zk {
        let serial = SerialNo(r.get_u64()?);
        let part = get_part(r)?;
        let n_rows = get_len(r)?;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let n_cts = get_len(r)?;
            let mut row = Vec::with_capacity(n_cts);
            for _ in 0..n_cts {
                let mut ct = [Scalar::ZERO; 4];
                for s in &mut ct {
                    *s = get_scalar(r)?;
                }
                row.push(ct);
            }
            rows.push(row);
        }
        let n_sum = get_len(r)?;
        let mut sum_responses = Vec::with_capacity(n_sum);
        for _ in 0..n_sum {
            sum_responses.push(get_scalar(r)?);
        }
        zk.push(PartZkPost {
            serial,
            part,
            rows,
            sum_responses,
        });
    }
    let n_tally = get_len(r)?;
    let mut per_option = Vec::with_capacity(n_tally);
    for _ in 0..n_tally {
        per_option.push((get_scalar(r)?, get_scalar(r)?));
    }
    Ok(TrusteePost {
        trustee_index,
        openings,
        zk,
        tally: TallySharePost { per_option },
    })
}

// ---------------------------------------------------------------------------
// Transport messages (the full `Msg` / `Envelope` enum)
// ---------------------------------------------------------------------------

/// Encodes a node identity (role byte + index).
pub fn put_node_id(w: &mut Writer, id: NodeId) {
    let kind = match id.kind {
        NodeKind::Ea => 0u8,
        NodeKind::Vc => 1,
        NodeKind::Bb => 2,
        NodeKind::Trustee => 3,
        NodeKind::Client => 4,
    };
    w.put_u8(kind).put_u32(id.index);
}

/// Decodes a node identity.
///
/// # Errors
/// [`WireError::BadValue`] for unknown role bytes.
pub fn get_node_id(r: &mut Reader<'_>) -> Result<NodeId, WireError> {
    let kind = match r.get_u8()? {
        0 => NodeKind::Ea,
        1 => NodeKind::Vc,
        2 => NodeKind::Bb,
        3 => NodeKind::Trustee,
        4 => NodeKind::Client,
        _ => return Err(WireError::BadValue),
    };
    Ok(NodeId {
        kind,
        index: r.get_u32()?,
    })
}

fn put_reject_reason(w: &mut Writer, reason: RejectReason) {
    w.put_u8(match reason {
        RejectReason::OutsideVotingHours => 0,
        RejectReason::UnknownSerial => 1,
        RejectReason::InvalidVoteCode => 2,
        RejectReason::AlreadyVotedDifferentCode => 3,
        RejectReason::ReplicaDegraded => 4,
    });
}

fn get_reject_reason(r: &mut Reader<'_>) -> Result<RejectReason, WireError> {
    Ok(match r.get_u8()? {
        0 => RejectReason::OutsideVotingHours,
        1 => RejectReason::UnknownSerial,
        2 => RejectReason::InvalidVoteCode,
        3 => RejectReason::AlreadyVotedDifferentCode,
        4 => RejectReason::ReplicaDegraded,
        _ => return Err(WireError::BadValue),
    })
}

/// Encodes a vote outcome (receipt or rejection).
pub fn put_vote_outcome(w: &mut Writer, outcome: &VoteOutcome) {
    match outcome {
        VoteOutcome::Receipt(receipt) => {
            w.put_u8(0).put_u64(*receipt);
        }
        VoteOutcome::Rejected(reason) => {
            w.put_u8(1);
            put_reject_reason(w, *reason);
        }
    }
}

/// Decodes a vote outcome.
///
/// # Errors
/// [`WireError::BadValue`] for unknown tags.
pub fn get_vote_outcome(r: &mut Reader<'_>) -> Result<VoteOutcome, WireError> {
    Ok(match r.get_u8()? {
        0 => VoteOutcome::Receipt(r.get_u64()?),
        1 => VoteOutcome::Rejected(get_reject_reason(r)?),
        _ => return Err(WireError::BadValue),
    })
}

fn put_consensus_payload(w: &mut Writer, p: &ConsensusPayload) {
    w.put_u32(p.round).put_u8(p.step);
    w.put_u32(p.values.len() as u32);
    for v in &p.values {
        w.put_u8(match v {
            None => 2,
            Some(false) => 0,
            Some(true) => 1,
        });
    }
}

fn get_consensus_payload(r: &mut Reader<'_>) -> Result<ConsensusPayload, WireError> {
    let round = r.get_u32()?;
    let step = r.get_u8()?;
    let n = get_len(r)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(match r.get_u8()? {
            0 => Some(false),
            1 => Some(true),
            2 => None,
            _ => return Err(WireError::BadValue),
        });
    }
    Ok(ConsensusPayload {
        round,
        step,
        values,
    })
}

fn put_announce_entry(w: &mut Writer, e: &AnnounceEntry) {
    w.put_u64(e.serial.0);
    match &e.vote {
        Some((code, ucert)) => {
            w.put_u8(1);
            put_vote_code(w, code);
            put_ucert(w, ucert);
        }
        None => {
            w.put_u8(0);
        }
    }
}

fn get_announce_entry(r: &mut Reader<'_>) -> Result<AnnounceEntry, WireError> {
    let serial = SerialNo(r.get_u64()?);
    let vote = match r.get_u8()? {
        0 => None,
        1 => {
            let code = get_vote_code(r)?;
            let ucert = Arc::new(get_ucert(r)?);
            Some((code, ucert))
        }
        _ => return Err(WireError::BadValue),
    };
    Ok(AnnounceEntry { serial, vote })
}

/// Encodes a finalized vote set (the VC → coordinator delivery).
pub fn put_finalized_vote_set(w: &mut Writer, f: &FinalizedVoteSet) {
    w.put_u32(f.node_index);
    put_vote_set(w, &f.vote_set);
    put_signature(w, &f.signature);
    put_signed_share(w, &f.msk_share);
    w.put_u64(f.announce_at_ms).put_u64(f.finalized_at_ms);
}

/// Decodes a finalized vote set.
///
/// # Errors
/// Propagates primitive decode failures.
pub fn get_finalized_vote_set(r: &mut Reader<'_>) -> Result<FinalizedVoteSet, WireError> {
    Ok(FinalizedVoteSet {
        node_index: r.get_u32()?,
        vote_set: get_vote_set(r)?,
        signature: get_signature(r)?,
        msk_share: get_signed_share(r)?,
        announce_at_ms: r.get_u64()?,
        finalized_at_ms: r.get_u64()?,
    })
}

const BBW_VOTE_SET: u8 = 1;
const BBW_MSK_SHARE: u8 = 2;
const BBW_TRUSTEE_POST: u8 = 3;

/// Encodes a BB write: the one form of its bytes, which crosses the wire
/// and is what a replica journals.
pub fn put_bb_write(w: &mut Writer, write: &BbWriteMsg) {
    match write {
        BbWriteMsg::VoteSet { from_vc, set, sig } => {
            w.put_u8(BBW_VOTE_SET).put_u32(*from_vc);
            put_vote_set(w, set);
            put_signature(w, sig);
        }
        BbWriteMsg::MskShare { share } => {
            w.put_u8(BBW_MSK_SHARE);
            put_signed_share(w, share);
        }
        BbWriteMsg::TrusteePost { post, sig } => {
            w.put_u8(BBW_TRUSTEE_POST);
            put_trustee_post(w, post);
            put_signature(w, sig);
        }
    }
}

/// Decodes a BB write.
///
/// # Errors
/// Propagates primitive decode failures; an unknown kind tag is
/// [`WireError::BadValue`].
pub fn get_bb_write(r: &mut Reader<'_>) -> Result<BbWriteMsg, WireError> {
    Ok(match r.get_u8()? {
        BBW_VOTE_SET => BbWriteMsg::VoteSet {
            from_vc: r.get_u32()?,
            set: get_vote_set(r)?,
            sig: get_signature(r)?,
        },
        BBW_MSK_SHARE => BbWriteMsg::MskShare {
            share: get_signed_share(r)?,
        },
        BBW_TRUSTEE_POST => BbWriteMsg::TrusteePost {
            post: Arc::new(get_trustee_post(r)?),
            sig: get_signature(r)?,
        },
        _ => return Err(WireError::BadValue),
    })
}

fn put_bb_write_outcome(w: &mut Writer, outcome: BbWriteOutcome) {
    w.put_u8(match outcome {
        BbWriteOutcome::Accepted => 0,
        BbWriteOutcome::BadSignature => 1,
        BbWriteOutcome::UnknownWriter => 2,
        BbWriteOutcome::Inconsistent => 3,
        BbWriteOutcome::WrongPhase => 4,
        BbWriteOutcome::ReadOnly => 5,
    });
}

fn get_bb_write_outcome(r: &mut Reader<'_>) -> Result<BbWriteOutcome, WireError> {
    Ok(match r.get_u8()? {
        0 => BbWriteOutcome::Accepted,
        1 => BbWriteOutcome::BadSignature,
        2 => BbWriteOutcome::UnknownWriter,
        3 => BbWriteOutcome::Inconsistent,
        4 => BbWriteOutcome::WrongPhase,
        5 => BbWriteOutcome::ReadOnly,
        _ => return Err(WireError::BadValue),
    })
}

fn put_bb_deal_outcome(w: &mut Writer, outcome: BbDealOutcome) {
    w.put_u8(match outcome {
        BbDealOutcome::Taken => 0,
        BbDealOutcome::Dealt => 1,
        BbDealOutcome::Refused => 2,
    });
}

fn get_bb_deal_outcome(r: &mut Reader<'_>) -> Result<BbDealOutcome, WireError> {
    Ok(match r.get_u8()? {
        0 => BbDealOutcome::Taken,
        1 => BbDealOutcome::Dealt,
        2 => BbDealOutcome::Refused,
        _ => return Err(WireError::BadValue),
    })
}

const MSG_VOTE: u8 = 1;
const MSG_VOTE_REPLY: u8 = 2;
const MSG_ENDORSE: u8 = 3;
const MSG_ENDORSEMENT: u8 = 4;
const MSG_VOTE_P: u8 = 5;
const MSG_ANNOUNCE: u8 = 6;
const MSG_RECOVER_REQUEST: u8 = 7;
const MSG_RECOVER_RESPONSE: u8 = 8;
const MSG_CONSENSUS: u8 = 9;
const MSG_AMNESIA: u8 = 10;
// Tag 11 carried the retired reliable-broadcast message. It stays
// unassigned, so every other message keeps its bytes on the wire and in
// the journal, and a frame carrying it is rejected.
const MSG_CLOSE_POLLS: u8 = 12;
const MSG_SHUTDOWN: u8 = 13;
const MSG_FINALIZED: u8 = 14;
const MSG_BB_WRITE: u8 = 15;
const MSG_BB_WRITE_REPLY: u8 = 16;
const MSG_BB_READ_REQUEST: u8 = 17;
const MSG_BB_READ_RESPONSE: u8 = 18;
const MSG_BB_DEAL: u8 = 19;
const MSG_BB_DEAL_REPLY: u8 = 20;

/// What an envelope frame ([`encode_envelope_frame`]) carrying a
/// [`Msg::BbDeal`] adds to its chunk: checksum 4, identities 5 + 5, tag 1,
/// correlation id 8, chunk length 4. A dealer whose chunks are this much
/// under a frame cap sends no frame over it.
pub const BB_DEAL_FRAME_OVERHEAD: usize = 27;

/// Encodes any protocol message (the transport payload codec).
pub fn put_msg(w: &mut Writer, msg: &Msg) {
    match msg {
        Msg::Vote {
            request_id,
            serial,
            vote_code,
        } => {
            w.put_u8(MSG_VOTE).put_u64(*request_id).put_u64(serial.0);
            put_vote_code(w, vote_code);
        }
        Msg::VoteReply {
            request_id,
            serial,
            outcome,
        } => {
            w.put_u8(MSG_VOTE_REPLY)
                .put_u64(*request_id)
                .put_u64(serial.0);
            put_vote_outcome(w, outcome);
        }
        Msg::Endorse { serial, vote_code } => {
            w.put_u8(MSG_ENDORSE).put_u64(serial.0);
            put_vote_code(w, vote_code);
        }
        Msg::Endorsement {
            serial,
            vote_code,
            signature,
        } => {
            w.put_u8(MSG_ENDORSEMENT).put_u64(serial.0);
            put_vote_code(w, vote_code);
            put_signature(w, signature);
        }
        Msg::VoteP {
            serial,
            vote_code,
            share,
            tag,
            ucert,
        } => {
            w.put_u8(MSG_VOTE_P).put_u64(serial.0);
            put_vote_code(w, vote_code);
            put_share(w, share);
            w.put_array(tag);
            put_ucert(w, ucert);
        }
        Msg::Announce { entries } => {
            w.put_u8(MSG_ANNOUNCE).put_u32(entries.len() as u32);
            for entry in entries.iter() {
                put_announce_entry(w, entry);
            }
        }
        Msg::RecoverRequest { serial } => {
            w.put_u8(MSG_RECOVER_REQUEST).put_u64(serial.0);
        }
        Msg::RecoverResponse {
            serial,
            vote_code,
            ucert,
        } => {
            w.put_u8(MSG_RECOVER_RESPONSE).put_u64(serial.0);
            put_vote_code(w, vote_code);
            put_ucert(w, ucert);
        }
        Msg::Consensus(cm) => {
            w.put_u8(MSG_CONSENSUS);
            put_consensus_payload(w, &cm.payload);
        }
        Msg::Amnesia => {
            w.put_u8(MSG_AMNESIA);
        }
        Msg::ClosePolls => {
            w.put_u8(MSG_CLOSE_POLLS);
        }
        Msg::Shutdown => {
            w.put_u8(MSG_SHUTDOWN);
        }
        Msg::Finalized(f) => {
            w.put_u8(MSG_FINALIZED);
            put_finalized_vote_set(w, f);
        }
        Msg::BbWrite { request_id, write } => {
            w.put_u8(MSG_BB_WRITE).put_u64(*request_id);
            put_bb_write(w, write);
        }
        Msg::BbWriteReply {
            request_id,
            outcome,
        } => {
            w.put_u8(MSG_BB_WRITE_REPLY).put_u64(*request_id);
            put_bb_write_outcome(w, *outcome);
        }
        Msg::BbReadRequest { request_id } => {
            w.put_u8(MSG_BB_READ_REQUEST).put_u64(*request_id);
        }
        Msg::BbReadResponse {
            request_id,
            snapshot,
        } => {
            w.put_u8(MSG_BB_READ_RESPONSE).put_u64(*request_id);
            w.put_bytes(snapshot);
        }
        Msg::BbDeal { request_id, chunk } => {
            w.put_u8(MSG_BB_DEAL).put_u64(*request_id);
            w.put_bytes(chunk);
        }
        Msg::BbDealReply {
            request_id,
            outcome,
        } => {
            w.put_u8(MSG_BB_DEAL_REPLY).put_u64(*request_id);
            put_bb_deal_outcome(w, *outcome);
        }
    }
}

/// Decodes any protocol message.
///
/// # Errors
/// [`WireError`] on truncation, bad tags, or non-canonical field values —
/// never a panic: this is the path attacker-controlled socket bytes take.
pub fn get_msg(r: &mut Reader<'_>) -> Result<Msg, WireError> {
    Ok(match r.get_u8()? {
        MSG_VOTE => Msg::Vote {
            request_id: r.get_u64()?,
            serial: SerialNo(r.get_u64()?),
            vote_code: get_vote_code(r)?,
        },
        MSG_VOTE_REPLY => Msg::VoteReply {
            request_id: r.get_u64()?,
            serial: SerialNo(r.get_u64()?),
            outcome: get_vote_outcome(r)?,
        },
        MSG_ENDORSE => Msg::Endorse {
            serial: SerialNo(r.get_u64()?),
            vote_code: get_vote_code(r)?,
        },
        MSG_ENDORSEMENT => Msg::Endorsement {
            serial: SerialNo(r.get_u64()?),
            vote_code: get_vote_code(r)?,
            signature: get_signature(r)?,
        },
        MSG_VOTE_P => Msg::VoteP {
            serial: SerialNo(r.get_u64()?),
            vote_code: get_vote_code(r)?,
            share: get_share(r)?,
            tag: r.get_array()?,
            ucert: Arc::new(get_ucert(r)?),
        },
        MSG_ANNOUNCE => {
            let n = get_len(r)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_announce_entry(r)?);
            }
            Msg::Announce {
                entries: Arc::new(entries),
            }
        }
        MSG_RECOVER_REQUEST => Msg::RecoverRequest {
            serial: SerialNo(r.get_u64()?),
        },
        MSG_RECOVER_RESPONSE => Msg::RecoverResponse {
            serial: SerialNo(r.get_u64()?),
            vote_code: get_vote_code(r)?,
            ucert: Arc::new(get_ucert(r)?),
        },
        MSG_CONSENSUS => Msg::Consensus(ConsensusMsg {
            payload: Arc::new(get_consensus_payload(r)?),
        }),
        MSG_AMNESIA => Msg::Amnesia,
        MSG_CLOSE_POLLS => Msg::ClosePolls,
        MSG_SHUTDOWN => Msg::Shutdown,
        MSG_FINALIZED => Msg::Finalized(get_finalized_vote_set(r)?),
        MSG_BB_WRITE => Msg::BbWrite {
            request_id: r.get_u64()?,
            write: get_bb_write(r)?,
        },
        MSG_BB_WRITE_REPLY => Msg::BbWriteReply {
            request_id: r.get_u64()?,
            outcome: get_bb_write_outcome(r)?,
        },
        MSG_BB_READ_REQUEST => Msg::BbReadRequest {
            request_id: r.get_u64()?,
        },
        MSG_BB_READ_RESPONSE => Msg::BbReadResponse {
            request_id: r.get_u64()?,
            snapshot: Arc::new(r.get_bytes()?.to_vec()),
        },
        MSG_BB_DEAL => Msg::BbDeal {
            request_id: r.get_u64()?,
            chunk: Arc::new(r.get_bytes()?.to_vec()),
        },
        MSG_BB_DEAL_REPLY => Msg::BbDealReply {
            request_id: r.get_u64()?,
            outcome: get_bb_deal_outcome(r)?,
        },
        _ => return Err(WireError::BadValue),
    })
}

/// Encodes an envelope (source + destination + message).
pub fn put_envelope(w: &mut Writer, env: &Envelope) {
    put_node_id(w, env.from);
    put_node_id(w, env.to);
    put_msg(w, &env.msg);
}

/// Decodes an envelope.
///
/// # Errors
/// Propagates [`WireError`] from the identity and message codecs.
pub fn get_envelope(r: &mut Reader<'_>) -> Result<Envelope, WireError> {
    Ok(Envelope {
        from: get_node_id(r)?,
        to: get_node_id(r)?,
        msg: get_msg(r)?,
    })
}

/// Encodes an envelope as a checksummed transport frame payload:
/// `crc32(body) || body`. This is what goes inside a length-prefixed TCP
/// frame — the checksum turns any single corrupted byte into a
/// [`WireError`] instead of a silently different message.
pub fn encode_envelope_frame(env: &Envelope) -> Vec<u8> {
    let mut body = Writer::new();
    put_envelope(&mut body, env);
    let body = body.into_bytes();
    let mut w = Writer::new();
    w.put_u32(crc32(&body)).put_array(&body);
    w.into_bytes()
}

/// Decodes a checksummed envelope frame produced by
/// [`encode_envelope_frame`].
///
/// # Errors
/// [`WireError::BadValue`] on checksum mismatch or trailing garbage;
/// [`WireError::UnexpectedEnd`] on truncation.
pub fn decode_envelope_frame(bytes: &[u8]) -> Result<Envelope, WireError> {
    let mut r = Reader::new(bytes);
    let expected = r.get_u32()?;
    let body = &bytes[4..];
    if crc32(body) != expected {
        return Err(WireError::BadValue);
    }
    let mut r = Reader::new(body);
    let env = get_envelope(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::BadValue);
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::schnorr::SigningKey;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    fn sig(rng: &mut StdRng) -> Signature {
        SigningKey::generate(rng).sign(b"codec-test")
    }

    #[test]
    fn signed_share_roundtrip() {
        let mut rng = rng();
        let share = SignedShare {
            share: Share {
                index: 3,
                value: Scalar::random(&mut rng),
            },
            signature: sig(&mut rng),
        };
        let mut w = Writer::new();
        put_signed_share(&mut w, &share);
        let bytes = w.into_bytes();
        let got = get_signed_share(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, share);
    }

    #[test]
    fn ucert_roundtrip() {
        let mut rng = rng();
        let ucert = UCert {
            serial: SerialNo(9),
            vote_code: VoteCode([5; 20]),
            sigs: vec![(0, sig(&mut rng)), (2, sig(&mut rng))],
        };
        let mut w = Writer::new();
        put_ucert(&mut w, &ucert);
        let bytes = w.into_bytes();
        let got = get_ucert(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.serial, ucert.serial);
        assert_eq!(got.vote_code, ucert.vote_code);
        assert_eq!(got.sigs, ucert.sigs);
    }

    #[test]
    fn vote_set_roundtrip() {
        let mut set = VoteSet::default();
        set.entries.insert(SerialNo(1), VoteCode([1; 20]));
        set.entries.insert(SerialNo(4), VoteCode([4; 20]));
        let mut w = Writer::new();
        put_vote_set(&mut w, &set);
        let bytes = w.into_bytes();
        assert_eq!(get_vote_set(&mut Reader::new(&bytes)).unwrap(), set);
    }

    #[test]
    fn trustee_post_roundtrip() {
        let mut rng = rng();
        let post = TrusteePost {
            trustee_index: 2,
            openings: vec![PartOpeningPost {
                serial: SerialNo(1),
                part: PartId::B,
                rows: vec![vec![(Scalar::random(&mut rng), Scalar::random(&mut rng))]],
            }],
            zk: vec![PartZkPost {
                serial: SerialNo(1),
                part: PartId::A,
                rows: vec![vec![[
                    Scalar::random(&mut rng),
                    Scalar::random(&mut rng),
                    Scalar::random(&mut rng),
                    Scalar::random(&mut rng),
                ]]],
                sum_responses: vec![Scalar::random(&mut rng)],
            }],
            tally: TallySharePost {
                per_option: vec![(Scalar::random(&mut rng), Scalar::random(&mut rng))],
            },
        };
        let mut w = Writer::new();
        put_trustee_post(&mut w, &post);
        let bytes = w.into_bytes();
        let got = get_trustee_post(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.trustee_index, post.trustee_index);
        assert_eq!(got.openings.len(), 1);
        assert_eq!(got.openings[0].rows, post.openings[0].rows);
        assert_eq!(got.zk[0].rows, post.zk[0].rows);
        assert_eq!(got.tally.per_option, post.tally.per_option);
    }

    #[test]
    fn corrupted_scalar_rejected() {
        let mut w = Writer::new();
        w.put_array(&[0xFF; 32]); // >= field modulus: non-canonical
        let bytes = w.into_bytes();
        assert_eq!(
            get_scalar(&mut Reader::new(&bytes)).unwrap_err(),
            WireError::BadValue
        );
    }

    #[test]
    fn oversized_length_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(
            get_vote_set(&mut Reader::new(&bytes)).unwrap_err(),
            WireError::BadLength
        );
    }

    // ----- full Msg / Envelope codec ------------------------------------

    use proptest::prelude::*;

    fn sample_ucert(rng: &mut StdRng) -> UCert {
        UCert {
            serial: SerialNo(rng.gen()),
            vote_code: VoteCode([rng.gen(); 20]),
            sigs: vec![(0, sig(rng)), (2, sig(rng))],
        }
    }

    fn sample_payload(rng: &mut StdRng) -> ConsensusPayload {
        ConsensusPayload {
            round: rng.gen_range(0..8),
            step: rng.gen_range(1..4u32) as u8,
            values: (0..rng.gen_range(0..6u32))
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                })
                .collect(),
        }
    }

    fn sample_signed_share(rng: &mut StdRng) -> SignedShare {
        SignedShare {
            share: Share {
                index: rng.gen_range(1..9),
                value: Scalar::random(rng),
            },
            signature: sig(rng),
        }
    }

    fn sample_trustee_post(rng: &mut StdRng) -> TrusteePost {
        TrusteePost {
            trustee_index: rng.gen_range(0..4),
            openings: vec![PartOpeningPost {
                serial: SerialNo(rng.gen()),
                part: PartId::B,
                rows: vec![vec![(Scalar::random(rng), Scalar::random(rng))]],
            }],
            zk: vec![PartZkPost {
                serial: SerialNo(rng.gen()),
                part: PartId::A,
                rows: vec![vec![[
                    Scalar::random(rng),
                    Scalar::random(rng),
                    Scalar::random(rng),
                    Scalar::random(rng),
                ]]],
                sum_responses: vec![Scalar::random(rng)],
            }],
            tally: TallySharePost {
                per_option: vec![(Scalar::random(rng), Scalar::random(rng))],
            },
        }
    }

    fn sample_vote_set(rng: &mut StdRng) -> VoteSet {
        let mut set = VoteSet::default();
        for _ in 0..rng.gen_range(0..4u32) {
            set.entries
                .insert(SerialNo(rng.gen_range(0..32)), VoteCode([rng.gen(); 20]));
        }
        set
    }

    /// The number of `Msg` variants [`sample_msg`] can produce (keep in
    /// sync with the enum).
    const MSG_VARIANTS: u32 = 19;

    /// One deterministic sample of each variant family, seeded.
    fn sample_msg(variant: u32, seed: u64) -> Msg {
        let rng = &mut StdRng::seed_from_u64(seed ^ u64::from(variant) << 32);
        match variant {
            0 => Msg::Vote {
                request_id: rng.gen(),
                serial: SerialNo(rng.gen()),
                vote_code: VoteCode([rng.gen(); 20]),
            },
            1 => Msg::VoteReply {
                request_id: rng.gen(),
                serial: SerialNo(rng.gen()),
                outcome: match rng.gen_range(0..6u32) {
                    0 => VoteOutcome::Receipt(rng.gen()),
                    1 => VoteOutcome::Rejected(RejectReason::OutsideVotingHours),
                    2 => VoteOutcome::Rejected(RejectReason::UnknownSerial),
                    3 => VoteOutcome::Rejected(RejectReason::InvalidVoteCode),
                    4 => VoteOutcome::Rejected(RejectReason::AlreadyVotedDifferentCode),
                    _ => VoteOutcome::Rejected(RejectReason::ReplicaDegraded),
                },
            },
            2 => Msg::Endorse {
                serial: SerialNo(rng.gen()),
                vote_code: VoteCode([rng.gen(); 20]),
            },
            3 => Msg::Endorsement {
                serial: SerialNo(rng.gen()),
                vote_code: VoteCode([rng.gen(); 20]),
                signature: sig(rng),
            },
            4 => Msg::VoteP {
                serial: SerialNo(rng.gen()),
                vote_code: VoteCode([rng.gen(); 20]),
                share: sample_signed_share(rng).share,
                tag: rng.gen(),
                ucert: Arc::new(sample_ucert(rng)),
            },
            5 => Msg::Announce {
                entries: Arc::new(
                    (0..rng.gen_range(0..4u64))
                        .map(|s| AnnounceEntry {
                            serial: SerialNo(s),
                            vote: if rng.gen() {
                                Some((VoteCode([rng.gen(); 20]), Arc::new(sample_ucert(rng))))
                            } else {
                                None
                            },
                        })
                        .collect(),
                ),
            },
            6 => Msg::RecoverRequest {
                serial: SerialNo(rng.gen()),
            },
            7 => Msg::RecoverResponse {
                serial: SerialNo(rng.gen()),
                vote_code: VoteCode([rng.gen(); 20]),
                ucert: Arc::new(sample_ucert(rng)),
            },
            8 => Msg::Consensus(ConsensusMsg {
                payload: Arc::new(sample_payload(rng)),
            }),
            9 => Msg::Amnesia,
            10 => Msg::ClosePolls,
            11 => Msg::Shutdown,
            12 => Msg::Finalized(FinalizedVoteSet {
                node_index: rng.gen_range(0..7),
                vote_set: sample_vote_set(rng),
                signature: sig(rng),
                msk_share: sample_signed_share(rng),
                announce_at_ms: rng.gen(),
                finalized_at_ms: rng.gen(),
            }),
            13 => Msg::BbWrite {
                request_id: rng.gen(),
                write: match rng.gen_range(0..3u32) {
                    0 => BbWriteMsg::VoteSet {
                        from_vc: rng.gen_range(0..7),
                        set: sample_vote_set(rng),
                        sig: sig(rng),
                    },
                    1 => BbWriteMsg::MskShare {
                        share: sample_signed_share(rng),
                    },
                    _ => BbWriteMsg::TrusteePost {
                        post: Arc::new(sample_trustee_post(rng)),
                        sig: sig(rng),
                    },
                },
            },
            14 => Msg::BbWriteReply {
                request_id: rng.gen(),
                outcome: match rng.gen_range(0..6u32) {
                    0 => BbWriteOutcome::Accepted,
                    1 => BbWriteOutcome::BadSignature,
                    2 => BbWriteOutcome::UnknownWriter,
                    3 => BbWriteOutcome::Inconsistent,
                    4 => BbWriteOutcome::WrongPhase,
                    _ => BbWriteOutcome::ReadOnly,
                },
            },
            15 => Msg::BbReadRequest {
                request_id: rng.gen(),
            },
            16 => Msg::BbReadResponse {
                request_id: rng.gen(),
                snapshot: Arc::new((0..rng.gen_range(0..64u32)).map(|i| i as u8).collect()),
            },
            17 => Msg::BbDeal {
                request_id: rng.gen(),
                chunk: Arc::new((0..rng.gen_range(0..64u32)).map(|i| i as u8).collect()),
            },
            _ => Msg::BbDealReply {
                request_id: rng.gen(),
                outcome: match rng.gen_range(0..3u32) {
                    0 => BbDealOutcome::Taken,
                    1 => BbDealOutcome::Dealt,
                    _ => BbDealOutcome::Refused,
                },
            },
        }
    }

    fn encode_msg(msg: &Msg) -> Vec<u8> {
        let mut w = Writer::new();
        put_msg(&mut w, msg);
        w.into_bytes()
    }

    fn sample_envelope(variant: u32, seed: u64) -> Envelope {
        Envelope {
            from: NodeId::client(variant),
            to: NodeId::vc(variant % 4),
            msg: sample_msg(variant, seed),
        }
    }

    #[test]
    fn every_msg_variant_roundtrips() {
        for variant in 0..MSG_VARIANTS {
            for seed in 0..3 {
                let msg = sample_msg(variant, seed);
                let bytes = encode_msg(&msg);
                let mut r = Reader::new(&bytes);
                let decoded = get_msg(&mut r).unwrap_or_else(|e| {
                    panic!("variant {variant} seed {seed} failed to decode: {e}")
                });
                assert_eq!(r.remaining(), 0, "variant {variant} trailing bytes");
                assert_eq!(
                    encode_msg(&decoded),
                    bytes,
                    "variant {variant} seed {seed} re-encode differs"
                );
            }
        }
    }

    /// A frame carrying the retired tag 11, with the body the
    /// reliable-broadcast message had (origin, consensus payload, phase)
    /// and a valid checksum, is refused as a bad value.
    #[test]
    fn retired_tag_11_is_rejected() {
        let mut body = Writer::new();
        put_node_id(&mut body, NodeId::vc(1));
        put_node_id(&mut body, NodeId::vc(2));
        body.put_u8(11);
        put_node_id(&mut body, NodeId::vc(1));
        put_consensus_payload(&mut body, &sample_payload(&mut rng()));
        body.put_u8(0);
        let body = body.into_bytes();
        let mut frame = Writer::new();
        frame.put_u32(crc32(&body)).put_array(&body);
        assert_eq!(
            decode_envelope_frame(&frame.into_bytes()).unwrap_err(),
            WireError::BadValue
        );
    }

    /// A deal's frame is its chunk plus exactly [`BB_DEAL_FRAME_OVERHEAD`]
    /// bytes, whatever the identities and the correlation id.
    #[test]
    fn a_deal_frame_adds_the_declared_overhead() {
        for len in [0, 1, 1000] {
            let frame = encode_envelope_frame(&Envelope {
                from: NodeId::client(u32::MAX),
                to: NodeId::bb(u32::MAX),
                msg: Msg::BbDeal {
                    request_id: u64::MAX,
                    chunk: Arc::new(vec![7; len]),
                },
            });
            assert_eq!(frame.len(), len + BB_DEAL_FRAME_OVERHEAD);
        }
    }

    #[test]
    fn params_roundtrip_and_invalid_params_are_refused() {
        let params = ElectionParams::new("codec", 9, 3, 4, 3, 5, 3, 10, 20).unwrap();
        let encode = |p: &ElectionParams| {
            let mut w = Writer::new();
            put_params(&mut w, p);
            w.into_bytes()
        };
        let bytes = encode(&params);
        let mut r = Reader::new(&bytes);
        assert_eq!(get_params(&mut r).unwrap(), params);
        assert_eq!(r.remaining(), 0);
        let mut invalid = params.clone();
        invalid.num_options = 1;
        let bytes = encode(&invalid);
        assert_eq!(
            get_params(&mut Reader::new(&bytes)).unwrap_err(),
            WireError::BadValue
        );
    }

    #[test]
    fn envelope_frame_roundtrips() {
        for variant in 0..MSG_VARIANTS {
            let env = sample_envelope(variant, 7);
            let frame = encode_envelope_frame(&env);
            let decoded = decode_envelope_frame(&frame).unwrap();
            assert_eq!(encode_envelope_frame(&decoded), frame);
        }
    }

    proptest! {
        /// Any strict prefix of a message encoding is an error — the
        /// codec never mistakes a truncated message for a complete one.
        #[test]
        fn prop_msg_truncation_always_errors(
            variant in 0u32..MSG_VARIANTS,
            seed in any::<u64>(),
            cut_seed in any::<u64>(),
        ) {
            let bytes = encode_msg(&sample_msg(variant, seed));
            let cut = (cut_seed % bytes.len() as u64) as usize; // < len: strict prefix
            prop_assert!(get_msg(&mut Reader::new(&bytes[..cut])).is_err());
        }

        /// Any single corrupted byte in a transport frame is detected by
        /// the checksum — corruption can never decode into a *different*
        /// message (and never panics).
        #[test]
        fn prop_frame_corruption_always_detected(
            variant in 0u32..MSG_VARIANTS,
            seed in any::<u64>(),
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let frame = encode_envelope_frame(&sample_envelope(variant, seed));
            let mut corrupted = frame.clone();
            let pos = (pos_seed % frame.len() as u64) as usize;
            corrupted[pos] ^= flip;
            prop_assert!(decode_envelope_frame(&corrupted).is_err());
        }

        /// Arbitrary junk never panics the decoders.
        #[test]
        fn prop_random_bytes_never_panic(
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = get_msg(&mut Reader::new(&data));
            let _ = decode_envelope_frame(&data);
            let _ = get_envelope(&mut Reader::new(&data));
        }
    }
}
