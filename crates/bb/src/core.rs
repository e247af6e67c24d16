//! The sans-I/O Bulletin Board core.
//!
//! [`BbCore`] mirrors the shape of `ddemos_vc`'s `VcCore`: the whole
//! write-verification state machine of §III-G as
//! `step(input) -> Vec<output>`, owning no lock, no journal, and no
//! socket. Inputs are the three authenticated write kinds; outputs are
//! the reply plus (for novel accepted writes) a journal append and its
//! commit barrier — the reply always comes *after* the commit, so a
//! driver that executes outputs in order never acknowledges a write it
//! could forget.
//!
//! The node wrapper (`crate::node::BbNode`) adds the lock and the
//! journal; the multi-process replica loop (`ddemos_harness::tcp`) adds
//! the socket. Both drive this same core, as does journal replay — which
//! re-applies the accepted-write history through the same verified write
//! path, so a rebuilt node is byte-identical to one that never crashed.

use ddemos_crypto::batch::LinearBatch;
use ddemos_crypto::elgamal::{self, Ciphertext, PublicKey};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::mverify::{MsgVerifier, DEFAULT_CACHE_CAPACITY};
use ddemos_crypto::schnorr::{Signature, VerifyingKey};
use ddemos_crypto::shamir::{Interpolator, InterpolatorCache};
use ddemos_crypto::votecode::{self, VoteCode};
use ddemos_crypto::vss::{DealerVss, SignedShare};
use ddemos_crypto::zkp;
use ddemos_protocol::codec;
use ddemos_protocol::initdata::{
    msk_share_context, opening_bundle_message, voteset_message, BbBallot, BbInit, BbRow,
};
use ddemos_protocol::messages::{BbWriteMsg, BbWriteOutcome};
use ddemos_protocol::posts::{ElectionResult, PartZkPost, TallySharePost, TrusteePost, VoteSet};
use ddemos_protocol::wire::{Reader, WireError, Writer};
use ddemos_protocol::{PartId, SerialNo};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-row, per-ciphertext `(bit, randomness)` openings of one ballot
/// part (`rows x ciphertexts`).
pub type RowOpenings = Vec<Vec<(Scalar, Scalar)>>;

/// Per-row reconstructed ZK final moves of one used ballot part:
/// `(per-ciphertext OR responses, sum response)`.
pub type RowZkResponses = Vec<(Vec<zkp::OrResponse>, Scalar)>;

/// Errors returned on rejected writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// The writer's signature (or the EA's, on relayed data) is invalid.
    BadSignature,
    /// The writer index is unknown.
    UnknownWriter,
    /// The submitted data contradicts already-verified state.
    Inconsistent,
    /// The node is not yet in the phase this write belongs to.
    WrongPhase,
    /// The replica could not be reached (remote replicas only — a local
    /// node never returns this).
    Unavailable,
    /// The replica's journal device is full: it refuses new writes
    /// rather than acknowledge them non-durably (read-only degradation;
    /// reads still serve everything already accepted).
    ReadOnly,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            WriteError::BadSignature => "signature verification failed",
            WriteError::UnknownWriter => "unknown writer",
            WriteError::Inconsistent => "data inconsistent with verified state",
            WriteError::WrongPhase => "write arrived in the wrong phase",
            WriteError::Unavailable => "replica unreachable",
            WriteError::ReadOnly => "replica degraded (journal device full): read-only",
        };
        write!(f, "{msg}")
    }
}
impl std::error::Error for WriteError {}

/// Maps a write result to its wire outcome code.
pub fn result_to_outcome(result: Result<(), WriteError>) -> BbWriteOutcome {
    match result {
        Ok(()) => BbWriteOutcome::Accepted,
        Err(WriteError::BadSignature) => BbWriteOutcome::BadSignature,
        Err(WriteError::UnknownWriter) => BbWriteOutcome::UnknownWriter,
        Err(WriteError::Inconsistent) => BbWriteOutcome::Inconsistent,
        // `Unavailable` never originates replica-side; collapse it to
        // the closest wire code defensively.
        Err(WriteError::WrongPhase) | Err(WriteError::Unavailable) => BbWriteOutcome::WrongPhase,
        Err(WriteError::ReadOnly) => BbWriteOutcome::ReadOnly,
    }
}

/// The wire outcome mapped back to the typed error (remote client side).
pub fn outcome_to_result(outcome: BbWriteOutcome) -> Result<(), WriteError> {
    match outcome {
        BbWriteOutcome::Accepted => Ok(()),
        BbWriteOutcome::BadSignature => Err(WriteError::BadSignature),
        BbWriteOutcome::UnknownWriter => Err(WriteError::UnknownWriter),
        BbWriteOutcome::Inconsistent => Err(WriteError::Inconsistent),
        BbWriteOutcome::WrongPhase => Err(WriteError::WrongPhase),
        BbWriteOutcome::ReadOnly => Err(WriteError::ReadOnly),
    }
}

/// Everything a BB node currently publishes (public read snapshot).
#[derive(Clone, Debug, Default)]
pub struct BbSnapshot {
    /// The accepted final vote set (after `fv+1` identical submissions).
    pub vote_set: Option<VoteSet>,
    /// Decrypted vote codes per ballot part row, once `msk` reconstructed:
    /// `(serial, part) → codes in row order`.
    pub decrypted_codes: BTreeMap<(SerialNo, u8), Vec<VoteCode>>,
    /// Openings of unused/unvoted part rows that verified:
    /// `(serial, part) → per-row per-ciphertext (bit, randomness)`.
    pub openings: BTreeMap<(SerialNo, u8), RowOpenings>,
    /// Reconstructed-and-verified ZK final moves for used parts:
    /// `(serial, part) → per-row (per-ciphertext OR responses, sum
    /// response)`. Publishing the responses lets auditors re-verify the
    /// proofs independently.
    pub zk_responses: BTreeMap<(SerialNo, u8), RowZkResponses>,
    /// The voter-coin challenge, once derivable.
    pub challenge: Option<Scalar>,
    /// The reconstructed opening of the homomorphic tally total, one
    /// `(message, randomness)` pair per option (lets auditors verify the
    /// result against the summed commitments).
    pub tally_opening: Option<Vec<(Scalar, Scalar)>>,
    /// The published result.
    pub result: Option<ElectionResult>,
}

impl BbSnapshot {
    /// A digest readers can majority-compare.
    pub fn digest(&self) -> [u8; 32] {
        let mut w = Writer::tagged("ddemos/bb-snapshot/v1");
        match &self.vote_set {
            Some(vs) => w.put_u8(1).put_array(&vs.digest()),
            None => w.put_u8(0),
        };
        w.put_u64(self.decrypted_codes.len() as u64);
        for ((serial, part), codes) in &self.decrypted_codes {
            w.put_u64(serial.0).put_u8(*part);
            for code in codes {
                w.put_array(&code.0);
            }
        }
        w.put_u64(self.openings.len() as u64);
        for ((serial, part), rows) in &self.openings {
            w.put_u64(serial.0).put_u8(*part).put_u32(rows.len() as u32);
        }
        match &self.result {
            Some(r) => w.put_u8(1).put_array(&r.digest()),
            None => w.put_u8(0),
        };
        w.digest()
    }
}

/// One input: an authenticated write. The three kinds mirror
/// [`BbWriteMsg`] (its typed, unpacked form).
#[derive(Clone, Debug)]
pub enum BbInput {
    /// A VC node's final vote set.
    VoteSet {
        /// Submitting VC node index.
        from_vc: u32,
        /// The submitted set.
        set: VoteSet,
        /// The VC node's signature over the set digest.
        sig: Signature,
    },
    /// A VC node's `msk` share.
    MskShare {
        /// The EA-signed share.
        share: SignedShare,
    },
    /// A trustee's post.
    TrusteePost {
        /// The post.
        post: Arc<TrusteePost>,
        /// The trustee's signature over the post digest.
        sig: Signature,
    },
}

impl BbInput {
    /// A static label naming the input variant (metrics coordinates).
    pub fn kind(&self) -> &'static str {
        match self {
            BbInput::VoteSet { .. } => "VoteSet",
            BbInput::MskShare { .. } => "MskShare",
            BbInput::TrusteePost { .. } => "TrusteePost",
        }
    }
}

impl From<BbWriteMsg> for BbInput {
    fn from(write: BbWriteMsg) -> BbInput {
        match write {
            BbWriteMsg::VoteSet { from_vc, set, sig } => BbInput::VoteSet { from_vc, set, sig },
            BbWriteMsg::MskShare { share } => BbInput::MskShare { share },
            BbWriteMsg::TrusteePost { post, sig } => BbInput::TrusteePost { post, sig },
        }
    }
}

/// One effect of a step, in execution order: journal appends and their
/// commit barrier precede the reply, so an acknowledged write is durable.
#[derive(Clone, Debug)]
pub enum BbOutput {
    /// Append one encoded [`BbRecord`] to the node's journal.
    Journal(Vec<u8>),
    /// Force the journal commit before the reply below is released.
    Commit,
    /// The write outcome to report to the submitter.
    Reply(Result<(), WriteError>),
}

/// One accepted (verified) BB write, as journaled and replayed. Cheap to
/// clone (the trustee post — the heavy payload — is shared by `Arc`).
#[derive(Clone)]
pub(crate) enum BbRecord {
    VoteSet {
        from_vc: u32,
        set: VoteSet,
        sig: Signature,
    },
    MskShare {
        share: SignedShare,
    },
    TrusteePost {
        post: Arc<TrusteePost>,
        sig: Signature,
    },
}

const TAG_VOTE_SET: u8 = 1;
const TAG_MSK_SHARE: u8 = 2;
const TAG_TRUSTEE_POST: u8 = 3;

impl BbRecord {
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        match self {
            BbRecord::VoteSet { from_vc, set, sig } => {
                w.put_u8(TAG_VOTE_SET).put_u32(*from_vc);
                codec::put_vote_set(w, set);
                codec::put_signature(w, sig);
            }
            BbRecord::MskShare { share } => {
                w.put_u8(TAG_MSK_SHARE);
                codec::put_signed_share(w, share);
            }
            BbRecord::TrusteePost { post, sig } => {
                w.put_u8(TAG_TRUSTEE_POST);
                codec::put_trustee_post(w, post);
                codec::put_signature(w, sig);
            }
        }
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<BbRecord, WireError> {
        Ok(match r.get_u8()? {
            TAG_VOTE_SET => BbRecord::VoteSet {
                from_vc: r.get_u32()?,
                set: codec::get_vote_set(r)?,
                sig: codec::get_signature(r)?,
            },
            TAG_MSK_SHARE => BbRecord::MskShare {
                share: codec::get_signed_share(r)?,
            },
            TAG_TRUSTEE_POST => BbRecord::TrusteePost {
                post: Arc::new(codec::get_trustee_post(r)?),
                sig: codec::get_signature(r)?,
            },
            _ => return Err(WireError::BadValue),
        })
    }

    fn into_input(self) -> BbInput {
        match self {
            BbRecord::VoteSet { from_vc, set, sig } => BbInput::VoteSet { from_vc, set, sig },
            BbRecord::MskShare { share } => BbInput::MskShare { share },
            BbRecord::TrusteePost { post, sig } => BbInput::TrusteePost { post, sig },
        }
    }
}

/// Digest of a trustee post, for write authentication.
pub fn trustee_post_digest(post: &TrusteePost) -> [u8; 32] {
    let mut w = Writer::tagged("ddemos/trustee-post/v1");
    w.put_u32(post.trustee_index);
    w.put_u64(post.openings.len() as u64);
    for o in &post.openings {
        w.put_u64(o.serial.0).put_u8(o.part.index() as u8);
        for row in &o.rows {
            for (b, r) in row {
                w.put_array(&b.to_bytes()).put_array(&r.to_bytes());
            }
        }
        w.put_array(&o.opening_sig.to_bytes());
    }
    w.put_u64(post.zk.len() as u64);
    for z in &post.zk {
        w.put_u64(z.serial.0).put_u8(z.part.index() as u8);
        for row in &z.rows {
            for ct in row {
                for s in ct {
                    w.put_array(&s.to_bytes());
                }
            }
        }
        for s in &z.sum_responses {
            w.put_array(&s.to_bytes());
        }
    }
    for (m, r) in &post.tally.per_option {
        w.put_array(&m.to_bytes()).put_array(&r.to_bytes());
    }
    w.digest()
}

/// The sans-I/O Bulletin Board state machine. See the module docs.
pub struct BbCore {
    init: BbInit,
    /// Batch-first signature verification front end: the batch path and
    /// the bounded verified-envelope memo. No per-writer comb tables — a
    /// table (~0.35 ms to build) repays itself after five one-at-a-time
    /// checks against its key, and a board sees fewer: one vote-set write
    /// per VC key, `N_v − f_v` `msk` shares under the EA key, and a
    /// trustee's one post (its signature and its EA-signed bundles) goes
    /// through the MSM. Volatile — it only memoizes results, so journal
    /// replay reproduces the same accept/reject outcomes.
    mverify: MsgVerifier,
    vote_set_submissions: BTreeMap<[u8; 32], Vec<u32>>, // digest -> vc nodes
    vote_sets: BTreeMap<[u8; 32], VoteSet>,
    msk_shares: Vec<SignedShare>,
    msk: Option<[u8; 16]>,
    trustee_posts: BTreeMap<u32, Arc<TrusteePost>>,
    /// Every accepted (verified, novel) write in **acceptance order** —
    /// the node's durable history. Snapshots re-encode this list
    /// verbatim, so replay reproduces the exact original write order
    /// (quorum thresholds cross for the same digest, phase gates open at
    /// the same points) and the rebuilt node is byte-identical to the
    /// never-crashed one.
    accepted: Vec<BbRecord>,
    snapshot: BbSnapshot,
}

impl BbCore {
    /// Creates a core from its initialization data (which it publishes
    /// immediately, per §III-D).
    pub fn new(init: BbInit) -> BbCore {
        BbCore {
            init,
            mverify: MsgVerifier::new(DEFAULT_CACHE_CAPACITY),
            vote_set_submissions: BTreeMap::new(),
            vote_sets: BTreeMap::new(),
            msk_shares: Vec::new(),
            msk: None,
            trustee_posts: BTreeMap::new(),
            accepted: Vec::new(),
            snapshot: BbSnapshot::default(),
        }
    }

    /// The published initialization data (public).
    pub fn init_data(&self) -> &BbInit {
        &self.init
    }

    /// The current public snapshot.
    pub fn snapshot(&self) -> &BbSnapshot {
        &self.snapshot
    }

    /// Advances the state machine by one write. Outputs are in execution
    /// order: journal append + commit (novel accepted writes only), then
    /// the reply.
    pub fn step(&mut self, input: BbInput) -> Vec<BbOutput> {
        let (outcome, record) = self.apply(input);
        let mut outputs = Vec::with_capacity(3);
        if let Some(record) = record {
            outputs.push(BbOutput::Journal(record.encode()));
            outputs.push(BbOutput::Commit);
        }
        outputs.push(BbOutput::Reply(outcome));
        outputs
    }

    /// Replays one journaled record through the same verified write path
    /// (no journal outputs — the record is already on disk). False when
    /// the record no longer verifies: tampered storage. The record is
    /// skipped — write-side verification must hold even against our own
    /// disk. `Inconsistent` from the msk path replays the original
    /// mismatched-commitment outcome (shares accepted, then cleared) and
    /// is not storage damage.
    pub(crate) fn replay(&mut self, record: BbRecord) -> bool {
        let (outcome, _) = self.apply(record.into_input());
        matches!(outcome, Ok(()) | Err(WriteError::Inconsistent))
    }

    /// Encodes the accepted-write history (the durable snapshot body).
    pub(crate) fn encode_history(&self, w: &mut Writer) {
        w.put_u64(self.accepted.len() as u64);
        for record in &self.accepted {
            record.encode_into(w);
        }
    }

    fn apply(&mut self, input: BbInput) -> (Result<(), WriteError>, Option<BbRecord>) {
        match input {
            BbInput::VoteSet { from_vc, set, sig } => self.on_vote_set(from_vc, &set, &sig),
            BbInput::MskShare { share } => self.on_msk_share(&share),
            BbInput::TrusteePost { post, sig } => self.on_trustee_post(post, &sig),
        }
    }

    fn on_vote_set(
        &mut self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> (Result<(), WriteError>, Option<BbRecord>) {
        let Some(vk) = self.init.vc_keys.get(from_vc as usize).copied() else {
            return (Err(WriteError::UnknownWriter), None);
        };
        let digest = set.digest();
        if !self.mverify.check(
            &vk,
            &voteset_message(&self.init.params.election_id, &digest),
            sig,
        ) {
            return (Err(WriteError::BadSignature), None);
        }
        let submitters = self.vote_set_submissions.entry(digest).or_default();
        let novel = !submitters.contains(&from_vc);
        if novel {
            submitters.push(from_vc);
        }
        let enough = submitters.len() > self.init.params.vc_faults();
        self.vote_sets.entry(digest).or_insert_with(|| set.clone());
        if enough && self.snapshot.vote_set.is_none() {
            self.snapshot.vote_set = Some(set.clone());
            self.after_phase_change();
        }
        if !novel {
            return (Ok(()), None);
        }
        let record = BbRecord::VoteSet {
            from_vc,
            set: set.clone(),
            sig: *sig,
        };
        self.accepted.push(record.clone());
        (Ok(()), Some(record))
    }

    fn on_msk_share(&mut self, share: &SignedShare) -> (Result<(), WriteError>, Option<BbRecord>) {
        let ctx = msk_share_context(&self.init.params.election_id);
        let ea_key = self.init.ea_key;
        if !self.mverify.check_share(&ea_key, &ctx, share) {
            return (Err(WriteError::BadSignature), None);
        }
        if self.msk.is_some() {
            return (Ok(()), None);
        }
        let novel = !self
            .msk_shares
            .iter()
            .any(|s| s.share.index == share.share.index);
        if !novel {
            return (Ok(()), None);
        }
        self.msk_shares.push(*share);
        // The share is accepted (EA-verified and novel) regardless of how
        // the reconstruction attempt below ends — record it first so the
        // journal history matches the in-memory share list even on the
        // mismatched-commitment path, where the shares are cleared (the
        // replay re-runs the same clear deterministically).
        let record = BbRecord::MskShare { share: *share };
        self.accepted.push(record.clone());
        let mut outcome = Ok(());
        let k = self.init.params.vc_quorum();
        if self.msk_shares.len() >= k {
            if let Ok(secret) = DealerVss::reconstruct(&self.msk_shares, k) {
                let bytes = secret.to_bytes();
                let mut msk = [0u8; 16];
                msk.copy_from_slice(&bytes[16..]);
                // Authenticate against H_msk before trusting it.
                if self.init.msk_commitment.matches(&msk) {
                    self.msk = Some(msk);
                    self.after_phase_change();
                } else {
                    self.msk_shares.clear();
                    outcome = Err(WriteError::Inconsistent);
                }
            }
        }
        (outcome, Some(record))
    }

    fn on_trustee_post(
        &mut self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> (Result<(), WriteError>, Option<BbRecord>) {
        let Some(vk) = self
            .init
            .trustee_keys
            .get(post.trustee_index as usize)
            .copied()
        else {
            return (Err(WriteError::UnknownWriter), None);
        };
        // One batch over the whole post: the trustee's signature on the
        // post digest plus the EA signatures on every opening bundle.
        // Any invalid entry rejects the write, exactly like the old
        // signature-at-a-time loop — it just costs one MSM.
        let mut items: Vec<(VerifyingKey, Vec<u8>, Signature)> =
            Vec::with_capacity(1 + post.openings.len());
        items.push((vk, trustee_post_digest(&post).to_vec(), *sig));
        for opening in &post.openings {
            let msg = opening_bundle_message(
                &self.init.params.election_id,
                opening.serial,
                opening.part,
                post.trustee_index,
                &opening.rows,
            );
            items.push((self.init.ea_key, msg, opening.opening_sig));
        }
        if self.mverify.check_batch(&items).iter().any(|ok| !ok) {
            return (Err(WriteError::BadSignature), None);
        }
        if self.snapshot.vote_set.is_none() || self.msk.is_none() {
            return (Err(WriteError::WrongPhase), None);
        }
        if !self.trustee_post_shape_ok(&post) {
            return (Err(WriteError::Inconsistent), None);
        }
        // First post per trustee wins: the accepted history must match
        // the retained state exactly, so a resubmission (same or
        // different content) is ignored rather than overwriting a post
        // the journal already committed to.
        if self.trustee_posts.contains_key(&post.trustee_index) {
            return (Ok(()), None);
        }
        self.trustee_posts.insert(post.trustee_index, post.clone());
        // Every post from the threshold on gets a pass, also once the
        // result is out: the pass only works on what is still unpublished,
        // so after honest posts it is a scan, and after a Byzantine one it
        // is what lets a later honest post complete the evidence.
        if self.trustee_posts.len() >= self.init.params.trustee_threshold {
            self.try_publish_result();
        }
        let record = BbRecord::TrusteePost { post, sig: *sig };
        self.accepted.push(record.clone());
        (Ok(()), Some(record))
    }

    /// Structural admission check for a trustee post: every share vector
    /// the tally loops later index must match the ballot geometry (rows ×
    /// ciphertexts) and the option count. The openings are EA-signed so
    /// their shape is authenticated, but the ZK and tally shares are the
    /// trustee's own — without this gate a Byzantine trustee could post
    /// short vectors and panic the replica mid-tally.
    fn trustee_post_shape_ok(&self, post: &TrusteePost) -> bool {
        let m = self.init.params.num_options;
        if post.tally.per_option.len() != m {
            return false;
        }
        for o in &post.openings {
            let Some(ballot) = self.init.ballots.get(&o.serial) else {
                return false;
            };
            let rows = &ballot.parts[o.part.index()];
            if o.rows.len() != rows.len() {
                return false;
            }
            if o.rows
                .iter()
                .zip(rows)
                .any(|(share_row, row)| share_row.len() != row.commitment.len())
            {
                return false;
            }
        }
        for z in &post.zk {
            let Some(ballot) = self.init.ballots.get(&z.serial) else {
                return false;
            };
            let rows = &ballot.parts[z.part.index()];
            if z.rows.len() != rows.len() || z.sum_responses.len() != rows.len() {
                return false;
            }
            if z.rows
                .iter()
                .zip(rows)
                .any(|(share_row, row)| share_row.len() != row.commitment.len())
            {
                return false;
            }
        }
        true
    }

    /// Called whenever the vote set or msk lands: decrypt codes, compute
    /// the challenge.
    fn after_phase_change(&mut self) {
        let (Some(msk), Some(vote_set)) = (self.msk, self.snapshot.vote_set.clone()) else {
            return;
        };
        if !self.snapshot.decrypted_codes.is_empty() {
            return;
        }
        // Decrypt every stored vote code (§III-G: "decrypts all the
        // encrypted vote codes in its initialization data, and publishes
        // them").
        for (serial, ballot) in self.init.ballots.iter() {
            for part in PartId::BOTH {
                let codes: Vec<VoteCode> = ballot.parts[part.index()]
                    .iter()
                    .filter_map(|row| votecode::decrypt_vote_code(&msk, &row.enc_code).ok())
                    .collect();
                self.snapshot
                    .decrypted_codes
                    .insert((*serial, part.index() as u8), codes);
            }
        }
        // Voter coins: the A/B choice of every voted ballot, in serial
        // order (§III-B). A=0, B=1.
        let mut coins = Vec::with_capacity(vote_set.len());
        for (serial, code) in &vote_set.entries {
            if let Some((part, _row)) = self.locate_cast_row(*serial, code) {
                coins.push(part.coin());
            }
        }
        let mut ctx = Vec::new();
        ctx.extend_from_slice(&self.init.params.election_id.0);
        self.snapshot.challenge = Some(zkp::challenge_from_coins(&ctx, &coins));
    }

    /// Finds (part, row) of a cast vote code using the decrypted codes.
    fn locate_cast_row(&self, serial: SerialNo, code: &VoteCode) -> Option<(PartId, usize)> {
        for part in PartId::BOTH {
            if let Some(codes) = self
                .snapshot
                .decrypted_codes
                .get(&(serial, part.index() as u8))
            {
                if let Some(row) = codes.iter().position(|c| c == code) {
                    return Some((part, row));
                }
            }
        }
        None
    }

    /// With ≥ h_t trustee posts verified, reconstruct openings, verify ZK
    /// proofs, open the homomorphic tally, and publish the result (§III-H).
    ///
    /// Runs on every accepted post from the `h_t`-th on, and each stage
    /// publishes only what the snapshot still lacks, so a part or a tally
    /// that one trustee subset could not produce is retried when the next
    /// post widens the choice.
    fn try_publish_result(&mut self) {
        // The caller gates on the challenge being present; losing it here
        // means corrupt state — skip publication rather than abort the
        // replica (readers outvote it).
        let Some(challenge) = self.snapshot.challenge else {
            return;
        };
        let posts: Vec<Arc<TrusteePost>> = self.trustee_posts.values().cloned().collect();
        // Lagrange weights per trustee subset this pass meets: one in the
        // honest case, at most C(N_t, h_t).
        let mut interpolators = InterpolatorCache::default();
        self.publish_parts(&posts, &challenge, &mut interpolators);
        if self.snapshot.result.is_none() {
            self.publish_tally(&posts, &mut interpolators);
        }
    }

    /// Unused/unvoted part openings and used-part ZK final moves: each part
    /// is reconstructed from the first `h_t` posts that carry it, and the
    /// parts of both kinds are verified together, [`check_parts`] a
    /// [`PartBatch`]. A part publishes iff all of its openings or proofs
    /// verify. Opening shares are EA-signed, so any subset interpolates the
    /// same values. ZK response shares are the trustees' own (nothing signs
    /// them but the post), so a ZK part the first subset cannot prove is
    /// searched over the other `h_t`-subsets: one Byzantine trustee among
    /// the lowest indices must not withhold evidence that `h_t` honest
    /// posts on the board can supply.
    fn publish_parts(
        &mut self,
        posts: &[Arc<TrusteePost>],
        challenge: &Scalar,
        interpolators: &mut InterpolatorCache,
    ) {
        let ht = self.init.params.trustee_threshold;
        let ballots = &self.init.ballots;
        let check = |parts: &[Part<'_>]| check_parts(&self.init.elgamal_pk, challenge, parts);
        let openings = group_shares(&self.snapshot.openings, posts, |post| {
            post.openings.iter().map(|o| (o.serial, o.part, &o.rows))
        });
        let zk = group_shares(&self.snapshot.zk_responses, posts, |post| {
            post.zk.iter().map(|z| (z.serial, z.part, z))
        });
        // Publishes what a settled batch verified; returns the rejected ZK
        // parts.
        let mut settle = |batch: &mut PartBatch<_>| {
            let (verified, rejected) = batch.settle(check);
            for part in verified {
                publish(&mut self.snapshot, part);
            }
            let rejected = rejected.into_iter();
            rejected.filter_map(|(key, _, e)| matches!(e, Evidence::Zk(_)).then_some(key))
        };
        let mut batch = PartBatch::new(VERIFY_TERMS);
        let mut unproven: Vec<(SerialNo, u8)> = Vec::new();
        for (key, shares) in &openings {
            let Some(shares) = shares.get(..ht) else {
                continue;
            };
            let Some(rows) = part_rows(ballots, key) else {
                continue;
            };
            let Ok(interp) = interpolators.over(shares.iter().map(|(index, _)| *index).collect())
            else {
                continue;
            };
            let shares: Vec<&RowOpenings> = shares.iter().map(|(_, rows)| *rows).collect();
            let Some(opened) = reconstruct_openings(interp, &shares, rows) else {
                continue;
            };
            let claims: usize = rows.iter().map(|row| row.commitment.len()).sum();
            batch.push((*key, rows, Evidence::Openings(opened)), 2 * claims);
            if batch.is_full() {
                unproven.extend(settle(&mut batch));
            }
        }
        for (key, shares) in &zk {
            let Some(first) = shares.get(..ht) else {
                continue;
            };
            let Some(rows) = part_rows(ballots, key) else {
                continue;
            };
            let Ok(interp) = interpolators.over(first.iter().map(|(index, _)| *index).collect())
            else {
                continue;
            };
            let first: Vec<&PartZkPost> = first.iter().map(|(_, z)| *z).collect();
            match reconstruct_zk(interp, &first, rows, challenge) {
                Some(responses) => {
                    let terms = rows.iter().map(|row| zkp::row_terms(row.commitment.len()));
                    batch.push((*key, rows, Evidence::Zk(responses)), terms.sum());
                }
                None => unproven.push(*key),
            }
            if batch.is_full() {
                unproven.extend(settle(&mut batch));
            }
        }
        unproven.extend(settle(&mut batch));

        // Subset search, part by part. The subset that proved the previous
        // part goes first: a Byzantine trustee is the same one throughout,
        // so the search costs its C(N_t, h_t) tries once, not per part.
        let mut proving: Option<Vec<u32>> = None;
        for key in unproven {
            let (Some(shares), Some(rows)) = (zk.get(&key), part_rows(ballots, &key)) else {
                continue;
            };
            // The first subset is the one that just failed.
            let mut subsets: Vec<(Vec<u32>, Vec<&PartZkPost>)> = subsets_of(shares, ht)
                .into_iter()
                .skip(1)
                .map(|subset| subset.into_iter().map(|(index, z)| (*index, *z)).unzip())
                .collect();
            subsets.sort_by_key(|(indices, _)| proving.as_ref() != Some(indices));
            for (indices, subset) in subsets {
                let Ok(interp) = interpolators.over(indices.clone()) else {
                    continue;
                };
                let Some(responses) = reconstruct_zk(interp, &subset, rows, challenge) else {
                    continue;
                };
                let part = (key, rows, Evidence::Zk(responses));
                if check(std::slice::from_ref(&part)).is_ok() {
                    publish(&mut self.snapshot, part);
                    proving = Some(indices);
                    break;
                }
            }
        }
    }

    /// The homomorphic tally: sums the cast rows' commitments and opens
    /// each option total from the trustees' tally shares. Bad shares are
    /// identified by reconstruct-then-verify over subsets (the commitments
    /// are perfectly binding, so a verified opening is *the* opening); the
    /// honest case opens every option from the first subset with one MSM.
    fn publish_tally(&mut self, posts: &[Arc<TrusteePost>], interpolators: &mut InterpolatorCache) {
        let _t = ddemos_obs::scoped_ns("bb.publish_ns", "tally");
        let ht = self.init.params.trustee_threshold;
        let pk = self.init.elgamal_pk;
        let m = self.init.params.num_options;
        // E_tally: the cast row's commitment vector of every voted ballot.
        let mut sums = vec![Ciphertext::IDENTITY; m];
        let mut counted = 0u64;
        {
            let Some(vote_set) = &self.snapshot.vote_set else {
                return;
            };
            for (serial, code) in &vote_set.entries {
                let Some((part, row_idx)) = self.locate_cast_row(*serial, code) else {
                    continue;
                };
                let Some(ballot) = self.init.ballots.get(serial) else {
                    continue;
                };
                let row = &ballot.parts[part.index()][row_idx];
                for (sum, ct) in sums.iter_mut().zip(&row.commitment) {
                    *sum = sum.add(ct);
                }
                counted += 1;
            }
        }
        let shares: Vec<(u32, &TallySharePost)> = posts
            .iter()
            .map(|p| (p.trustee_index + 1, &p.tally))
            .collect();
        // Subsets in lexicographic order; an option keeps the first
        // opening that verifies and later subsets only see what is left.
        let mut opening: Vec<Option<(Scalar, Scalar)>> = vec![None; m];
        for subset in subsets_of(&shares, ht) {
            if opening.iter().all(Option::is_some) {
                break;
            }
            let Ok(interp) = interpolators.over(subset.iter().map(|(index, _)| *index).collect())
            else {
                continue;
            };
            let mut slots = Vec::with_capacity(m);
            let mut items = Vec::with_capacity(m);
            for ((j, sum_ct), slot) in sums.iter().enumerate().zip(opening.iter_mut()) {
                if slot.is_some() {
                    continue;
                }
                let (Ok(msg), Ok(rand)) = (
                    interp.at_zero(subset.iter().map(|(_, p)| p.per_option[j].0)),
                    interp.at_zero(subset.iter().map(|(_, p)| p.per_option[j].1)),
                ) else {
                    continue;
                };
                slots.push(slot);
                items.push((*sum_ct, msg, rand));
            }
            // One MSM over every candidate; per-option attribution only
            // when it fails.
            let all_verify = elgamal::batch_verify_openings(&pk, &items);
            for (slot, (sum_ct, msg, rand)) in slots.into_iter().zip(items) {
                if all_verify || elgamal::verify_opening(&pk, &sum_ct, &msg, &rand) {
                    *slot = Some((msg, rand));
                }
            }
        }
        // An unopened option means: need more trustee posts.
        let Some(opening) = opening.into_iter().collect::<Option<Vec<_>>>() else {
            return;
        };
        let Some(tally) = opening
            .iter()
            .map(|(msg, _)| msg.to_u64())
            .collect::<Option<Vec<u64>>>()
        else {
            return;
        };
        self.snapshot.tally_opening = Some(opening);
        self.snapshot.result = Some(ElectionResult {
            tally,
            ballots_counted: counted,
        });
    }
}

/// Every part's shares, as `(evaluation index, share)` in trustee order,
/// for the parts `published` does not hold yet. `posts` must be in trustee
/// order; a post that names one part twice then shows up as a repeated
/// last index and only its first entry stands, so a share list is a valid
/// index set whatever a Byzantine trustee repeats.
fn group_shares<'a, V, T: 'a, I>(
    published: &BTreeMap<(SerialNo, u8), V>,
    posts: &'a [Arc<TrusteePost>],
    parts_of: impl Fn(&'a TrusteePost) -> I,
) -> BTreeMap<(SerialNo, u8), Vec<(u32, &'a T)>>
where
    I: Iterator<Item = (SerialNo, PartId, &'a T)>,
{
    let mut by_key: BTreeMap<(SerialNo, u8), Vec<(u32, &'a T)>> = BTreeMap::new();
    for post in posts {
        let index = post.trustee_index + 1;
        for (serial, part, share) in parts_of(post) {
            let key = (serial, part.index() as u8);
            if published.contains_key(&key) {
                continue;
            }
            let shares = by_key.entry(key).or_default();
            if shares.last().map(|(last, _)| *last) != Some(index) {
                shares.push((index, share));
            }
        }
    }
    by_key
}

/// The published rows of one ballot part.
fn part_rows<'a>(
    ballots: &'a BTreeMap<SerialNo, BbBallot>,
    (serial, part): &(SerialNo, u8),
) -> Option<&'a [BbRow]> {
    let ballot = ballots.get(serial)?;
    ballot.parts.get(usize::from(*part)).map(Vec::as_slice)
}

/// MSM terms per verification batch: 2 an opening claim, [`zkp::row_terms`]
/// a proven row. One electorate-sized MSM holds `O(n·m²)` points, scalars
/// and transcript bytes per replica at once (and the replicas of one
/// process verify concurrently); bounding the batch bounds that transient.
/// The price is the MSM's slowly falling per-term cost: an 8k-term MSM
/// pays ~5.7 µs a term where a 64k-term one pays ~5.0 (DESIGN.md §4.2).
const VERIFY_TERMS: usize = 8192;

/// What the trustees' posts prove of one ballot part, reconstructed and
/// awaiting verification.
enum Evidence {
    /// The openings of an unused or unvoted part.
    Openings(RowOpenings),
    /// The ZK final moves of a used part.
    Zk(RowZkResponses),
}

/// A ballot part, its published rows and its evidence.
type Part<'a> = ((SerialNo, u8), &'a [BbRow], Evidence);

/// Publishes verified evidence in its part of the snapshot.
fn publish(snapshot: &mut BbSnapshot, (key, _, evidence): Part<'_>) {
    match evidence {
        Evidence::Openings(opened) => drop(snapshot.openings.insert(key, opened)),
        Evidence::Zk(responses) => drop(snapshot.zk_responses.insert(key, responses)),
    }
}

/// Checks the evidence of `parts` in one [`LinearBatch`], each part under
/// its position as label — an opened part's claims
/// ([`elgamal::push_opening`]), a proven part's rows
/// ([`zkp::RowProof::push`]) — and returns the positions that fail.
fn check_parts(pk: &PublicKey, c: &Scalar, parts: &[Part<'_>]) -> Result<(), Vec<usize>> {
    let _t = ddemos_obs::scoped_ns("bb.publish_ns", "verify");
    let mut batch = LinearBatch::new(VERIFY_TERMS);
    let pk = batch.shared(&pk.0);
    for (label, (_, rows, evidence)) in parts.iter().enumerate() {
        match evidence {
            Evidence::Openings(opened) => {
                for (row, opened_row) in rows.iter().zip(opened) {
                    for (ct, (bit, rand)) in row.commitment.iter().zip(opened_row) {
                        elgamal::push_opening(&mut batch, pk, &(*ct, *bit, *rand), label);
                    }
                }
            }
            Evidence::Zk(responses) => {
                for (row, (or_resp, sum_z)) in rows.iter().zip(responses) {
                    let proof = zkp::RowProof {
                        cts: &row.commitment,
                        or_first: &row.or_first,
                        or_resp,
                        sum_first: &row.sum_first,
                        sum_z: *sum_z,
                        c: *c,
                    };
                    proof.push(&mut batch, pk, |_| label);
                }
            }
        }
    }
    batch.check()
}

/// Whole ballot parts awaiting one batch verification:
/// [`PartBatch::push`] adds a part with its MSM terms; once
/// [`PartBatch::is_full`], the caller settles the batch. Batches end at
/// part boundaries, so the labels of a failing batch name whole parts.
struct PartBatch<P> {
    limit: usize,
    terms: usize,
    parts: Vec<P>,
}

impl<P> PartBatch<P> {
    fn new(limit: usize) -> Self {
        PartBatch {
            limit,
            terms: 0,
            parts: Vec::new(),
        }
    }

    fn push(&mut self, part: P, terms: usize) {
        self.parts.push(part);
        self.terms += terms;
    }

    fn is_full(&self) -> bool {
        self.terms >= self.limit
    }

    /// Verifies the pending parts in one `check`, which returns the
    /// positions of the failing ones, and empties the batch. Returns
    /// `(verified, rejected)`.
    fn settle(&mut self, check: impl Fn(&[P]) -> Result<(), Vec<usize>>) -> (Vec<P>, Vec<P>) {
        let parts = std::mem::take(&mut self.parts);
        self.terms = 0;
        let failing = check(&parts).err().unwrap_or_default();
        let (rejected, verified): (Vec<_>, Vec<_>) = parts
            .into_iter()
            .enumerate()
            .partition(|(at, _)| failing.contains(at));
        let unlabel = |parts: Vec<(usize, P)>| parts.into_iter().map(|(_, part)| part).collect();
        (unlabel(verified), unlabel(rejected))
    }
}

/// Interpolates every opening of one ballot part from `shares` (one
/// `rows x ciphertexts` grid per index of `interp`, in its order).
fn reconstruct_openings(
    interp: &Interpolator,
    shares: &[&RowOpenings],
    rows: &[BbRow],
) -> Option<RowOpenings> {
    let _t = ddemos_obs::scoped_ns("bb.publish_ns", "interpolate");
    let mut opened_rows = Vec::with_capacity(rows.len());
    for (row_idx, row) in rows.iter().enumerate() {
        let mut opened_cts = Vec::with_capacity(row.commitment.len());
        for ct_idx in 0..row.commitment.len() {
            let bit = interp.at_zero(shares.iter().map(|rows| rows[row_idx][ct_idx].0));
            let rand = interp.at_zero(shares.iter().map(|rows| rows[row_idx][ct_idx].1));
            opened_cts.push((bit.ok()?, rand.ok()?));
        }
        opened_rows.push(opened_cts);
    }
    Some(opened_rows)
}

/// Interpolates the ZK final moves of one used ballot part from `shares`
/// (one post per index of `interp`, in its order). `None` when a row's
/// first moves do not match its ciphertexts, or a reconstructed OR
/// response fails the `c0 + c1 = c` split — checks that cost no curve
/// work and keep a part that certainly fails out of the batch.
fn reconstruct_zk(
    interp: &Interpolator,
    shares: &[&PartZkPost],
    rows: &[BbRow],
    challenge: &Scalar,
) -> Option<RowZkResponses> {
    let _t = ddemos_obs::scoped_ns("bb.publish_ns", "interpolate");
    let mut responses = Vec::with_capacity(rows.len());
    for (row_idx, row) in rows.iter().enumerate() {
        if row.or_first.len() != row.commitment.len() {
            return None;
        }
        let mut row_responses = Vec::with_capacity(row.commitment.len());
        for ct_idx in 0..row.commitment.len() {
            let comp = |slot: usize| {
                interp
                    .at_zero(shares.iter().map(|z| z.rows[row_idx][ct_idx][slot]))
                    .ok()
            };
            let resp = zkp::OrResponse {
                c0: comp(0)?,
                z0: comp(1)?,
                c1: comp(2)?,
                z1: comp(3)?,
            };
            if resp.c0 + resp.c1 != *challenge {
                return None;
            }
            row_responses.push(resp);
        }
        let z = interp
            .at_zero(shares.iter().map(|z| z.sum_responses[row_idx]))
            .ok()?;
        responses.push((row_responses, z));
    }
    Some(responses)
}

/// All `k`-subsets of `items` (small inputs only: `C(Nt, ht)`).
fn subsets_of<T>(items: &[T], k: usize) -> Vec<Vec<&T>> {
    let mut out = Vec::new();
    let n = items.len();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| &items[i]).collect());
        // advance combination
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        if idx[i] == i + n - k {
            return out;
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_enumerate_combinations() {
        let items = [1, 2, 3, 4];
        let subs = subsets_of(&items, 2);
        assert_eq!(subs.len(), 6);
        let subs3 = subsets_of(&items, 3);
        assert_eq!(subs3.len(), 4);
        assert_eq!(subsets_of(&items, 5).len(), 0);
        assert_eq!(subsets_of(&items, 4).len(), 1);
    }

    #[test]
    fn bad_part_in_one_batch_blocks_no_other_part() {
        // Nine parts of two items (two terms) each through four-term
        // batches; part 4 (in the third batch) carries a bad item. The
        // verifier names the positions of the parts that hold a bad item,
        // as the engine's labels do.
        let verify = |parts: &[(usize, [u32; 2])]| {
            let bad = parts
                .iter()
                .enumerate()
                .filter(|(_, (_, items))| items.contains(&41));
            let bad: Vec<usize> = bad.map(|(at, _)| at).collect();
            if bad.is_empty() {
                Ok(())
            } else {
                Err(bad)
            }
        };
        let mut batch = PartBatch::new(4);
        let (mut verified, mut rejected, mut batches) = (Vec::new(), Vec::new(), 0);
        for part in 0..9usize {
            batch.push((part, [part as u32 * 10, part as u32 * 10 + 1]), 2);
            if batch.is_full() {
                let (ok, bad) = batch.settle(verify);
                verified.extend(ok);
                rejected.extend(bad);
                batches += 1;
                assert!(!batch.is_full(), "a settled batch holds nothing");
            }
        }
        let (ok, bad) = batch.settle(verify);
        verified.extend(ok);
        rejected.extend(bad);
        assert_eq!(
            batches, 4,
            "batches close at part boundaries, every 4 terms"
        );
        let ids =
            |parts: Vec<(usize, [u32; 2])>| parts.into_iter().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(verified), vec![0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(ids(rejected), vec![4]);
        // Nothing pending verifies vacuously.
        assert_eq!(batch.settle(verify), (vec![], vec![]));
    }

    /// The real verifier at a real size (650 openings in one batch, a
    /// 1.3k-term MSM): one corrupted opening rejects exactly its part.
    #[test]
    fn one_bad_opening_rejects_exactly_its_part() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let (_, pk) = elgamal::keygen(&mut rng);
        let prepared = elgamal::PreparedKey::new(&pk);
        type Part = (usize, Vec<(Ciphertext, Scalar, Scalar)>);
        let verify = |parts: &[Part]| {
            let mut batch = LinearBatch::new(0);
            let pk = batch.shared(&pk.0);
            for (label, (_, claims)) in parts.iter().enumerate() {
                for claim in claims {
                    elgamal::push_opening(&mut batch, pk, claim, label);
                }
            }
            batch.check()
        };
        const PARTS: usize = 130;
        let openings: Vec<(Ciphertext, Scalar, Scalar)> = (0..5 * PARTS as u64)
            .map(|i| {
                let (bit, rand) = (Scalar::from_u64(i % 2), Scalar::random(&mut rng));
                (prepared.encrypt_with(&bit, &rand), bit, rand)
            })
            .collect();
        type Corruption = fn(&mut (Ciphertext, Scalar, Scalar));
        let corruptions: [Corruption; 2] = [
            |opening| opening.2 += Scalar::ONE,
            |opening| opening.0.b += opening.0.a,
        ];
        for (bad_part, bad_item) in [(0, 0), (PARTS - 1, 4), (57, 2)] {
            for corrupt in corruptions {
                let mut openings = openings.clone();
                corrupt(&mut openings[5 * bad_part + bad_item]);
                let mut batch = PartBatch::new(VERIFY_TERMS);
                for (part, chunk) in openings.chunks(5).enumerate() {
                    batch.push((part, chunk.to_vec()), 2 * chunk.len());
                }
                assert!(!batch.is_full(), "one batch");
                let (verified, rejected) = batch.settle(verify);
                assert_eq!(rejected.len(), 1);
                assert_eq!(rejected[0].0, bad_part);
                assert_eq!(verified.len(), PARTS - 1);
            }
        }
    }
}
