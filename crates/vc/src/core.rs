//! The sans-I/O Vote Collector core.
//!
//! [`HonestCore`] is the entire honest per-node protocol of Algorithm 1
//! plus the election-end Vote Set Consensus of §III-E as a pure state
//! machine: `step(input, now_ms) -> Vec<VcOutput>`. It owns no thread, no
//! socket, no channel, no clock, and no journal — drivers feed it
//! [`VcInput`]s and execute the [`VcOutput`]s it returns, in order. It
//! carries no adversary either: a Byzantine collector is this machine
//! wrapped at its step boundary ([`crate::VcCore`], `behavior.rs`), which
//! reads it only through the read-only accessors below.
//!
//! Determinism contract: given the same construction arguments and the
//! same `(input, now_ms)` sequence, a core produces byte-identical output
//! sequences (see [`StepTrace`] and `tests/determinism.rs`), whatever
//! drives it — the in-process thread loop over `SimNet`, the same loop
//! over a replica's authenticated event loop, or a test harness
//! replaying a recorded trace.
//!
//! Output ordering carries the durability contract: a
//! [`VcOutput::Commit`] precedes, in the same step, the
//! [`VcOutput::Send`]s that must not leave before the journaled state is
//! on disk. A barrier is an fsync some voter waits for, so the core emits
//! one only where the paper's safety argument needs a record to survive a
//! power cycle — before an ENDORSEMENT, a VOTE_P, the ANNOUNCE and the
//! finalized set leave (the durability table on `VcRecord` in
//! `durable.rs`; every `persist()` cites its row). The rest rides to the
//! next barrier, and nothing is addressed to oneself: a collector takes
//! its own endorsement and stores its own EA-dealt share where it
//! produces them; ENDORSE and VOTE_P go to the *other* collectors.

use crate::durable::{BallotSlot, DurableView, Status, VcRecord};
use crate::store::BallotStore;
use ddemos_crypto::field::Scalar;
use ddemos_crypto::mverify::MsgVerifier;
use ddemos_crypto::schnorr::{Signature, VerifyingKey};
use ddemos_crypto::sha256::sha256;
use ddemos_crypto::shamir::{InterpolatorCache, Share};
use ddemos_crypto::votecode::VoteCode;
use ddemos_crypto::vss::{DealerVss, ShareTag};
use ddemos_protocol::codec;
use ddemos_protocol::initdata::{endorsement_message, receipt_share_context, VcInit};
use ddemos_protocol::messages::{
    AnnounceEntry, ConsensusMsg, Envelope, Msg, RejectReason, UCert, VoteOutcome,
};
use ddemos_protocol::posts::{FinalizedVoteSet, VoteSet};
use ddemos_protocol::wire::{Reader, WireError, Writer};
use ddemos_protocol::{NodeId, NodeKind, PartId, SerialNo};
use ddemos_storage::Durable;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use ddemos_consensus::BatchConsensus;

/// One input to the core. Time never comes from a clock the core reads —
/// every step is stamped with the driver's `now_ms` (node-clock
/// milliseconds, drift included).
// Deliver carries a full envelope by design: boxing it would cost an
// allocation per message on the voting hot path to shrink three unit
// variants.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum VcInput {
    /// A network envelope arrived.
    Deliver(Envelope),
    /// The poll timer fired with no traffic (drives the end-of-voting
    /// check, exactly like the old loop's `recv_timeout` expiry).
    Tick,
    /// Close the polls now (the node behaves as if its clock passed
    /// `Tend`). The driver translates a `Msg::ClosePolls` envelope from the
    /// coordinator into this, and drops one from anyone else.
    ClosePolls,
    /// The driver is stopping; the core emits nothing and expects no
    /// further steps.
    Shutdown,
}

const IN_DELIVER: u8 = 1;
const IN_TICK: u8 = 2;
const IN_CLOSE_POLLS: u8 = 3;
const IN_SHUTDOWN: u8 = 4;

impl VcInput {
    /// Canonical encoding (trace recording / replay).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            VcInput::Deliver(env) => {
                w.put_u8(IN_DELIVER);
                codec::put_envelope(&mut w, env);
            }
            VcInput::Tick => {
                w.put_u8(IN_TICK);
            }
            VcInput::ClosePolls => {
                w.put_u8(IN_CLOSE_POLLS);
            }
            VcInput::Shutdown => {
                w.put_u8(IN_SHUTDOWN);
            }
        }
        w.into_bytes()
    }

    /// Decodes an input recorded by [`VcInput::encode`].
    ///
    /// # Errors
    /// [`WireError`] on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<VcInput, WireError> {
        let mut r = Reader::new(bytes);
        Ok(match r.get_u8()? {
            IN_DELIVER => VcInput::Deliver(codec::get_envelope(&mut r)?),
            IN_TICK => VcInput::Tick,
            IN_CLOSE_POLLS => VcInput::ClosePolls,
            IN_SHUTDOWN => VcInput::Shutdown,
            _ => return Err(WireError::BadValue),
        })
    }
}

/// One effect a driver must execute. Order matters (see the module docs).
#[derive(Clone, Debug)]
pub enum VcOutput {
    /// Send a message on the node's transport endpoint.
    Send {
        /// Destination.
        to: NodeId,
        /// Payload.
        msg: Msg,
    },
    /// (Re-)arm the poll timer: the driver's next receive should wait at
    /// most this long before feeding [`VcInput::Tick`].
    SetTimer(Duration),
    /// Append one encoded [`VcRecord`] to the node's journal. Emitted
    /// only by cores constructed with `durable = true`.
    Journal(Vec<u8>),
    /// Force the journal's group commit (and run the snapshot cadence):
    /// the state appended so far must be durable before the following
    /// `Send`s become externally visible.
    Commit,
    /// The finalized vote set: the driver writes it, with the node's
    /// `msk` share, to every BB replica.
    Deliver(FinalizedVoteSet),
    /// The node power-cycled ([`Msg::Amnesia`]): volatile state is
    /// already gone; the driver must crash-simulate its journal, replay
    /// it into [`HonestCore::durable`], then run
    /// [`HonestCore::post_recovery`] and execute what it returns.
    Recover,
}

impl VcOutput {
    /// Canonical encoding (trace recording).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            VcOutput::Send { to, msg } => {
                w.put_u8(1);
                codec::put_node_id(&mut w, *to);
                codec::put_msg(&mut w, msg);
            }
            VcOutput::SetTimer(d) => {
                w.put_u8(2).put_u64(d.as_nanos() as u64);
            }
            VcOutput::Journal(bytes) => {
                w.put_u8(3).put_bytes(bytes);
            }
            VcOutput::Commit => {
                w.put_u8(4);
            }
            VcOutput::Deliver(f) => {
                w.put_u8(5);
                codec::put_finalized_vote_set(&mut w, f);
            }
            VcOutput::Recover => {
                w.put_u8(6);
            }
        }
        w.into_bytes()
    }
}

/// One recorded step: the encoded input, its time stamp, and the encoded
/// outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// [`VcInput::encode`] of the step's input.
    pub input: Vec<u8>,
    /// The `now_ms` the driver stamped the step with.
    pub now_ms: u64,
    /// [`VcOutput::encode`] of each output, in order.
    pub outputs: Vec<Vec<u8>>,
}

/// A shared recorder a driver appends every `(input, now_ms, outputs)`
/// triple to — the byte-level proof that core behavior is a pure function
/// of the input sequence, independent of the driver.
#[derive(Clone, Default)]
pub struct StepTrace {
    entries: Arc<Mutex<Vec<TraceStep>>>,
}

impl std::fmt::Debug for StepTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StepTrace({} steps)", self.entries.lock().len())
    }
}

impl StepTrace {
    /// An empty trace.
    pub fn new() -> StepTrace {
        StepTrace::default()
    }

    /// Records one step.
    pub fn record(&self, input: &VcInput, now_ms: u64, outputs: &[VcOutput]) {
        self.entries.lock().push(TraceStep {
            input: input.encode(),
            now_ms,
            outputs: outputs.iter().map(VcOutput::encode).collect(),
        });
    }

    /// Takes the recorded steps (the trace is left empty).
    pub fn take(&self) -> Vec<TraceStep> {
        std::mem::take(&mut self.entries.lock())
    }

    /// A digest over every recorded byte (order-sensitive).
    pub fn digest(&self) -> [u8; 32] {
        let entries = self.entries.lock();
        let mut w = Writer::tagged("ddemos/vc-step-trace/v1");
        w.put_u64(entries.len() as u64);
        for step in entries.iter() {
            w.put_bytes(&step.input);
            w.put_u64(step.now_ms);
            w.put_u32(step.outputs.len() as u32);
            for out in &step.outputs {
                w.put_bytes(out);
            }
        }
        w.digest()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Voting,
    Announce,
    Consensus,
    Recover,
    Done,
}

/// A [`Durable`] view over a core's journaled state, handed to drivers
/// for journal recovery ([`HonestCore::durable`]).
pub struct VcDurable<'a>(DurableView<'a>);

impl Durable for VcDurable<'_> {
    fn encode_snapshot(&self, w: &mut Writer) {
        self.0.encode_snapshot(w);
    }

    fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.0.restore_snapshot(r)
    }

    fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError> {
        self.0.apply_record(record)
    }
}

/// The receipt secret from the first `quorum` of `shares`, through the
/// cached weights of their index set. The set is keyed sorted — shares
/// arrive in any order and the sum does not care — so the result is the
/// scalar `DealerVss::reconstruct` gives, bit for bit.
fn reconstruct_receipt(
    weights: &mut InterpolatorCache,
    shares: &[Share],
    quorum: usize,
) -> Option<Scalar> {
    let mut chosen: Vec<(u32, Scalar)> = shares
        .get(..quorum)?
        .iter()
        .map(|s| (s.index, s.value))
        .collect();
    chosen.sort_unstable_by_key(|(index, _)| *index);
    let interp = weights
        .over(chosen.iter().map(|(index, _)| *index).collect())
        .ok()?;
    interp.at_zero(chosen.iter().map(|(_, value)| *value)).ok()
}

/// The honest sans-I/O Vote Collector state machine. See the module docs.
pub struct HonestCore<S> {
    init: VcInit,
    store: S,
    poll: Duration,
    beacon: u64,
    /// Whether a journal is attached driver-side: gates the
    /// [`VcOutput::Journal`]/[`VcOutput::Commit`]/[`VcOutput::Recover`]
    /// outputs (and their encoding cost) off the hot path for volatile
    /// nodes.
    durable: bool,
    slots: BTreeMap<SerialNo, BallotSlot>,
    phase: Phase,
    /// Whether this node has delivered its finalized vote set (journaled,
    /// so an amnesia recovery cannot deliver a second one).
    finalized: bool,
    /// Digests of already-verified UCERTs.
    verified_ucerts: BTreeSet<[u8; 32]>,
    /// Lagrange weights per receipt-share index set (at most
    /// `C(N_v, N_v − f_v)`): the cast that completes a share quorum pays
    /// multiply-adds, not field inversions. A memo of constants: there is
    /// nothing in it for an amnesia crash to forget.
    receipt_weights: InterpolatorCache,
    /// Batch-first signature verification front end: prepared tables for
    /// the static peer keys plus the hand-off of the current burst's
    /// [`HonestCore::preverify`] verdicts. Volatile (rebuilt empty on
    /// recovery) — it only carries verdicts, so replaying the same inputs
    /// reproduces the same outcomes.
    mverify: MsgVerifier,
    /// Signatures a step left unverified because its structural filters
    /// dropped the message first (with [`MsgVerifier::take_counts`], the
    /// `vc.sig_checks` metric).
    sigs_skipped: u64,
    /// UCERT entries accepted as this node's own endorsement, byte for
    /// byte, without group math (`vc.sig_checks{own}`).
    sigs_own: u64,
    /// Corrupt replayed slots met since the last
    /// [`HonestCore::take_corrupt_slots`], one entry per meeting, named by what
    /// the step did instead.
    corrupt_slots: Vec<&'static str>,
    announce_from: BTreeSet<u32>,
    /// ANNOUNCE messages that arrived while this node was still in the
    /// voting phase. Polls close at each node's *own* clock (or when the
    /// coordinator's ClosePolls reaches it — a network message, staggered
    /// like any other), so an early peer's single ANNOUNCE multicast must not
    /// be lost: more than `fv` drops would leave the announce quorum
    /// unreachable and deadlock vote-set consensus.
    buffered_announces: Vec<(NodeId, Arc<Vec<AnnounceEntry>>)>,
    consensus: Option<BatchConsensus>,
    buffered_consensus: Vec<(u32, ConsensusMsg)>,
    decision: Option<Vec<bool>>,
    /// How many rounds vote-set consensus took to decide, until
    /// [`HonestCore::take_decided_round`] takes it.
    decided_round: Option<u32>,
    /// Polls closed (by `Tend` on the node clock or a ClosePolls input).
    closed: bool,
    /// Set while a [`VcOutput::Recover`] is outstanding: suppresses the
    /// end-of-voting check until [`HonestCore::post_recovery`] runs it over
    /// the recovered state.
    awaiting_recovery: bool,
    /// The time stamp of the step being processed.
    now_ms: u64,
    /// Journal device reported full: the node is read-only. It keeps
    /// serving already-recorded receipts but refuses to take on new
    /// votes or sign new endorsements — a durable promise it could not
    /// keep across a restart would break receipt uniqueness. Set by the
    /// driver when an append returns `StorageError::DiskFull`.
    degraded: bool,
    outputs: Vec<VcOutput>,
}

impl<S: BallotStore> HonestCore<S> {
    /// Creates a core. `durable` must reflect whether the driver attaches
    /// a journal (it gates the journal outputs).
    pub fn new(
        init: VcInit,
        store: S,
        poll: Duration,
        beacon: u64,
        durable: bool,
    ) -> HonestCore<S> {
        let mut mverify = MsgVerifier::default();
        for vk in &init.vc_keys {
            mverify.prepare(vk);
        }
        HonestCore {
            init,
            store,
            poll,
            beacon,
            durable,
            slots: BTreeMap::new(),
            phase: Phase::Voting,
            finalized: false,
            verified_ucerts: BTreeSet::new(),
            receipt_weights: InterpolatorCache::default(),
            mverify,
            sigs_skipped: 0,
            sigs_own: 0,
            corrupt_slots: Vec::new(),
            announce_from: BTreeSet::new(),
            buffered_announces: Vec::new(),
            consensus: None,
            buffered_consensus: Vec::new(),
            decision: None,
            decided_round: None,
            closed: false,
            awaiting_recovery: false,
            now_ms: 0,
            degraded: false,
            outputs: Vec::new(),
        }
    }

    /// This node's network identity.
    pub fn id(&self) -> NodeId {
        NodeId::vc(self.init.node_index)
    }

    /// Puts the core into read-only degraded mode (journal device full).
    /// New votes get a typed [`RejectReason::ReplicaDegraded`] refusal
    /// and no new endorsements are signed; already-recorded receipts are
    /// still served. Degradation is sticky — a replica only leaves it by
    /// restarting against a device with room again.
    pub fn set_degraded(&mut self) {
        self.degraded = true;
    }

    /// Whether the core is in read-only degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The code this node has endorsed for `serial`, if any (it signs at
    /// most one per ballot).
    pub fn endorsed(&self, serial: SerialNo) -> Option<VoteCode> {
        self.slots.get(&serial).and_then(|slot| slot.my_endorsed)
    }

    /// Whether this node has entered vote-set consensus (sent its
    /// initial BVAL vector).
    pub fn in_consensus(&self) -> bool {
        self.consensus.is_some()
    }

    /// Initial outputs: arms the poll timer. Drivers execute these before
    /// the first step.
    pub fn start(&mut self) -> Vec<VcOutput> {
        vec![VcOutput::SetTimer(self.poll)]
    }

    /// Whether this node has released its finalized vote set. A done
    /// node keeps serving straggler peers (late consensus echoes,
    /// RECOVER dispersals), but its own protocol outcome is sealed;
    /// drivers use this to keep post-finalization traffic — whose extent
    /// depends on when the process shuts down — out of the deterministic
    /// metrics fingerprint.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The journaled-state view drivers replay a journal into (node
    /// start-up and [`VcOutput::Recover`] handling).
    pub fn durable(&mut self) -> VcDurable<'_> {
        VcDurable(DurableView {
            slots: &mut self.slots,
            verified_ucerts: &mut self.verified_ucerts,
            finalized: &mut self.finalized,
        })
    }

    /// Completes a journal replay: re-enters the `Done` phase if the
    /// replayed state was finalized, finishes receipts the crash
    /// interrupted, and re-runs the end-of-voting check over the
    /// recovered state. Drivers call this after every
    /// [`HonestCore::durable`] replay and execute the returned outputs.
    pub fn post_recovery(&mut self, now_ms: u64) -> Vec<VcOutput> {
        self.now_ms = now_ms;
        self.awaiting_recovery = false;
        if self.finalized {
            self.phase = Phase::Done;
        }
        // A replayed `Pending` slot with a quorum of shares reconstructs
        // now, as the live node would have before its next message.
        let pending: Vec<SerialNo> = self
            .slots
            .iter()
            .filter(|(_, slot)| slot.status == Status::Pending)
            .map(|(serial, _)| *serial)
            .collect();
        for serial in pending {
            self.try_reconstruct(serial);
        }
        self.check_phase_end();
        std::mem::take(&mut self.outputs)
    }

    /// Advances the state machine by one input, stamped with the node
    /// clock's current milliseconds. Returns the effects, in order.
    pub fn step(&mut self, input: VcInput, now_ms: u64) -> Vec<VcOutput> {
        self.now_ms = now_ms;
        match input {
            VcInput::Deliver(env) => self.dispatch(env),
            VcInput::Tick => {}
            VcInput::ClosePolls => self.closed = true,
            VcInput::Shutdown => {
                return std::mem::take(&mut self.outputs);
            }
        }
        if !self.awaiting_recovery {
            self.check_phase_end();
        }
        std::mem::take(&mut self.outputs)
    }

    /// Batch-verifies a burst of queued inputs for the `step`s that
    /// follow: extracts the signatures they would otherwise verify one at
    /// a time (ENDORSEMENT signatures, VOTE_P UCERT signatures), verifies
    /// them in one batch and hands the valid ones to those steps
    /// ([`MsgVerifier::check_burst`]), replacing the previous burst's. A
    /// VOTE_P's receipt share carries an EA tag, not a signature: its
    /// step checks it with one keyed hash.
    ///
    /// It queues only what the state machine can still use, by the
    /// filters the handlers apply themselves: no endorsement the
    /// responder slot would drop, no UCERT whose `(serial, code)` is
    /// already verified, no UCERT entry that is this node's own
    /// endorsement, no VOTE_P that cannot change its slot, and per serial
    /// no more endorsements than the quorum still lacks.
    ///
    /// Purely an optimization — it emits no outputs and mutates nothing
    /// but the hand-off, and a signature only enters the hand-off by
    /// verifying, so `step` outcomes are byte-identical with or without
    /// this call: whatever was not queued here (or failed) is verified,
    /// attributed, inside the step that needs it.
    pub fn preverify(&mut self, inputs: &[VcInput]) {
        let eid = self.init.params.election_id;
        let quorum = self.quorum();
        let mut items: Vec<(VerifyingKey, Vec<u8>, Signature)> = Vec::new();
        // Endorsements this burst has queued so far.
        let mut endorsers: BTreeMap<SerialNo, Vec<u32>> = BTreeMap::new();
        for input in inputs {
            let VcInput::Deliver(env) = input else {
                continue;
            };
            if env.from.kind != NodeKind::Vc {
                continue;
            }
            match &env.msg {
                Msg::Endorsement {
                    serial,
                    vote_code,
                    signature,
                } => {
                    let sender = env.from.index;
                    let Some(slot) = self.collecting_slot(*serial, *vote_code, sender) else {
                        continue;
                    };
                    let queued = endorsers.entry(*serial).or_default();
                    if queued.contains(&sender) || slot.endorsements.len() + queued.len() >= quorum
                    {
                        continue;
                    }
                    if let Some(vk) = self.init.vc_keys.get(sender as usize) {
                        queued.push(sender);
                        items.push((
                            *vk,
                            endorsement_message(&eid, *serial, &sha256(&vote_code.0)),
                            *signature,
                        ));
                    }
                }
                Msg::VoteP {
                    serial,
                    vote_code,
                    share,
                    ucert,
                    ..
                } => {
                    if ucert.serial != *serial
                        || ucert.vote_code != *vote_code
                        || self.vote_p_is_redundant(*serial, *vote_code, share.index)
                        || self.verified_ucerts.contains(&ucert.key_digest())
                    {
                        continue;
                    }
                    let msg = endorsement_message(&eid, *serial, &sha256(&vote_code.0));
                    for (idx, sig) in &ucert.sigs {
                        if self.is_own_endorsement(*serial, *vote_code, *idx, sig) {
                            continue;
                        }
                        if let Some(vk) = self.init.vc_keys.get(*idx as usize) {
                            items.push((*vk, msg.clone(), *sig));
                        }
                    }
                }
                _ => {}
            }
        }
        self.mverify.check_burst(&items);
    }

    /// Signature work since the last call, by outcome: `fresh` (verified
    /// with group math), `cached` (handed off by the burst's
    /// [`HonestCore::preverify`]), `deduped` (shared the verdict of an
    /// equal item in one batch), `own` (a UCERT entry equal to this
    /// node's own endorsement), `skipped` (a step dropped the message
    /// before verifying it). Drivers export it as the `vc.sig_checks`
    /// counter.
    pub fn take_sig_checks(&mut self) -> [(&'static str, u64); 5] {
        let counts = self.mverify.take_counts();
        [
            ("fresh", counts.fresh),
            ("cached", counts.cached),
            ("deduped", counts.deduped),
            ("own", std::mem::take(&mut self.sigs_own)),
            ("skipped", std::mem::take(&mut self.sigs_skipped)),
        ]
    }

    /// Corrupt replayed slots met since the last call, one entry each:
    /// `refused_vote`, `dropped_ucert` or `dropped_vote_p`. Drivers export
    /// them as the `vc.corrupt_slots` counter.
    pub fn take_corrupt_slots(&mut self) -> Vec<&'static str> {
        std::mem::take(&mut self.corrupt_slots)
    }

    /// How many rounds this node's vote-set consensus took — the round it
    /// decided in, counted from one — once, on the step that decided it.
    /// Drivers export it as the `vc.consensus.rounds` histogram: with one
    /// coin per (round, slot), a batch of `n` slots takes about
    /// `log₂ n + 1` rounds.
    pub fn take_decided_round(&mut self) -> Option<u32> {
        self.decided_round.take()
    }

    /// The slot an ENDORSEMENT of `code` from VC node `sender` would add
    /// to: one this node is responder for with exactly that code, still
    /// collecting, and not yet holding that sender's signature.
    fn collecting_slot(
        &self,
        serial: SerialNo,
        code: VoteCode,
        sender: u32,
    ) -> Option<&BallotSlot> {
        self.slots.get(&serial).filter(|slot| {
            slot.used.map(|(used, ..)| used) == Some(code)
                && slot.status == Status::NotVoted
                && !slot.endorsements.iter().any(|(i, _)| *i == sender)
        })
    }

    /// Whether a VOTE_P for `(serial, code)` carrying share `index` finds
    /// nothing left to change: the slot already runs on that code with
    /// its UCERT stored, and either holds that share index or has its
    /// receipt. Nothing in such a message is worth a check.
    fn vote_p_is_redundant(&self, serial: SerialNo, code: VoteCode, index: u32) -> bool {
        self.slots.get(&serial).is_some_and(|slot| {
            slot.used.map(|(used, ..)| used) == Some(code)
                && slot.ucert.is_some()
                && (slot.status == Status::Voted || slot.shares.iter().any(|s| s.index == index))
        })
    }

    /// Whether UCERT entry `(idx, sig)` for `(serial, code)` is this
    /// node's own endorsement, byte for byte as it signed it: valid
    /// without group math. A node holds its signature only from the
    /// `endorse` that made it until a power cycle; after a journal replay
    /// the entry is verified like any other.
    fn is_own_endorsement(
        &self,
        serial: SerialNo,
        code: VoteCode,
        idx: u32,
        sig: &Signature,
    ) -> bool {
        idx == self.init.node_index
            && self.slots.get(&serial).is_some_and(|slot| {
                slot.my_endorsed == Some(code) && slot.my_signature.as_ref() == Some(sig)
            })
    }

    fn check_phase_end(&mut self) {
        let ended = self.closed || self.now_ms >= self.init.params.end_ms;
        if self.phase == Phase::Voting && ended {
            self.begin_announce();
        }
    }

    fn out(&mut self, output: VcOutput) {
        self.outputs.push(output);
    }

    fn send(&mut self, to: NodeId, msg: Msg) {
        self.out(VcOutput::Send { to, msg });
    }

    /// Sends `msg` to every collector, this node's own inbox included.
    fn multicast(&mut self, msg: Msg) {
        for index in 0..self.init.params.num_vc as u32 {
            self.send(NodeId::vc(index), msg.clone());
        }
    }

    /// Sends `msg` to every *other* collector: an ENDORSE carries nothing
    /// its sender does not already hold.
    fn multicast_others(&mut self, msg: Msg) {
        let me = self.init.node_index;
        for index in (0..self.init.params.num_vc as u32).filter(|i| *i != me) {
            self.send(NodeId::vc(index), msg.clone());
        }
    }

    fn quorum(&self) -> usize {
        self.init.params.vc_quorum()
    }

    fn in_voting_hours(&self) -> bool {
        !self.closed && self.init.params.in_voting_hours(self.now_ms)
    }

    // ----- durability ------------------------------------------------------

    /// Emits one journal-append output (no-op for volatile cores — the
    /// closure defers record construction, so they pay nothing on the
    /// voting hot path). An appended record is durable at the next
    /// barrier ([`HonestCore::persist`]), whichever step emits it.
    fn jlog(&mut self, record: impl FnOnce() -> VcRecord) {
        if self.durable {
            let bytes = record().encode();
            self.out(VcOutput::Journal(bytes));
        }
    }

    /// Emits a commit barrier: everything journaled so far must be
    /// durable before the outputs that follow leave the node.
    fn persist(&mut self) {
        if self.durable {
            self.out(VcOutput::Commit);
        }
    }

    /// Reconstructs the receipt once the slot holds a quorum of shares
    /// and answers the voters waiting on it. No barrier (durability
    /// table, `Voted`): any quorum gives the same receipt again.
    fn try_reconstruct(&mut self, serial: SerialNo) {
        let quorum = self.quorum();
        let Some(slot) = self.slots.get_mut(&serial) else {
            return;
        };
        if slot.status != Status::Pending || slot.shares.len() < quorum {
            return;
        }
        let Some(secret) = reconstruct_receipt(&mut self.receipt_weights, &slot.shares, quorum)
        else {
            return;
        };
        let receipt = secret.to_u64().unwrap_or(u64::MAX);
        slot.receipt = Some(receipt);
        slot.status = Status::Voted;
        let code = slot.used.map(|(code, ..)| code);
        let waiting = std::mem::take(&mut slot.waiting);
        self.jlog(|| VcRecord::Voted { serial, receipt });
        for (client, request_id, wanted) in waiting {
            // Only waiters of the *winning* code get the receipt; a
            // racing different-code request lost the uniqueness race.
            let outcome = if Some(wanted) == code {
                VoteOutcome::Receipt(receipt)
            } else {
                VoteOutcome::Rejected(RejectReason::AlreadyVotedDifferentCode)
            };
            // lint:allow(commit-order, durability table: `Voted` — any quorum gives this receipt again)
            self.reply(client, request_id, serial, outcome);
        }
    }

    /// Power-cycles the node (the `CrashAmnesia` fault): every byte of
    /// volatile state is dropped. For durable cores the driver then
    /// crash-simulates the journal and replays it (the emitted
    /// [`VcOutput::Recover`]); volatile nodes simply come back empty.
    /// Volatile scratch (waiting clients, collected endorsements,
    /// consensus buffers) is legitimately gone — voters retry, peers
    /// re-drive.
    fn crash_amnesia(&mut self) {
        self.slots.clear();
        self.verified_ucerts.clear();
        self.announce_from.clear();
        self.buffered_announces.clear();
        self.consensus = None;
        self.buffered_consensus.clear();
        self.decision = None;
        self.finalized = false;
        self.phase = Phase::Voting;
        if self.durable {
            self.awaiting_recovery = true;
            self.out(VcOutput::Recover);
        }
        // If the clock already passed `Tend` the end-of-voting check
        // (post-recovery for durable cores, end of this step otherwise)
        // re-enters the announce phase.
    }

    /// A replayed slot that lost a field its status implies is real
    /// corruption; a live node must refuse the ballot rather than panic.
    fn reject_corrupt_slot(&mut self, to: NodeId, request_id: u64, serial: SerialNo) {
        self.corrupt_slots.push("refused_vote");
        self.reply(
            to,
            request_id,
            serial,
            VoteOutcome::Rejected(RejectReason::InvalidVoteCode),
        );
    }

    fn dispatch(&mut self, env: Envelope) {
        if let Msg::Amnesia = env.msg {
            // Only the fault injector's self-addressed envelope counts —
            // a peer cannot remote-reboot this node.
            if env.from == self.id() {
                self.crash_amnesia();
            }
            return;
        }
        match env.msg {
            Msg::Vote {
                request_id,
                serial,
                vote_code,
            } => self.on_vote(env.from, request_id, serial, vote_code),
            Msg::Endorse { serial, vote_code } => self.on_endorse(env.from, serial, vote_code),
            Msg::Endorsement {
                serial,
                vote_code,
                signature,
            } => self.on_endorsement(env.from, serial, vote_code, signature),
            Msg::VoteP {
                serial,
                vote_code,
                share,
                tag,
                ucert,
            } => self.on_vote_p(env.from, serial, vote_code, share, tag, ucert),
            Msg::Announce { entries } => self.on_announce(env.from, entries),
            Msg::RecoverRequest { serial } => self.on_recover_request(env.from, serial),
            Msg::RecoverResponse {
                serial,
                vote_code,
                ucert,
            } => self.on_recover_response(serial, vote_code, ucert),
            Msg::Consensus(cm) => self.on_consensus(env.from, cm),
            // ClosePolls/Shutdown are driver-level control signals (the
            // driver authenticates and translates them into typed
            // inputs); everything else addressed to a VC node is noise.
            Msg::VoteReply { .. }
            | Msg::Amnesia
            | Msg::ClosePolls
            | Msg::Shutdown
            | Msg::BbWrite { .. }
            | Msg::BbWriteReply { .. }
            | Msg::BbReadRequest { .. }
            | Msg::BbReadResponse { .. }
            | Msg::BbDeal { .. }
            | Msg::BbDealReply { .. } => {}
        }
    }

    // ----- voting phase (Algorithm 1) -------------------------------------

    fn reply(&mut self, to: NodeId, request_id: u64, serial: SerialNo, outcome: VoteOutcome) {
        self.send(
            to,
            Msg::VoteReply {
                request_id,
                serial,
                outcome,
            },
        );
    }

    fn on_vote(&mut self, from: NodeId, request_id: u64, serial: SerialNo, code: VoteCode) {
        if !self.in_voting_hours() {
            self.reply(
                from,
                request_id,
                serial,
                VoteOutcome::Rejected(RejectReason::OutsideVotingHours),
            );
            return;
        }
        let Some(ballot) = self.store.get(serial) else {
            self.reply(
                from,
                request_id,
                serial,
                VoteOutcome::Rejected(RejectReason::UnknownSerial),
            );
            return;
        };
        if self.degraded {
            // Read-only: keep serving ballots whose journal state is
            // already durable (a `Voted` replay of the same code, or a
            // round already in flight) but refuse to start new work we
            // could not record.
            let has_durable_state = self
                .slots
                .get(&serial)
                .is_some_and(|s| s.status != Status::NotVoted || s.used.is_some());
            if !has_durable_state {
                self.reply(
                    from,
                    request_id,
                    serial,
                    VoteOutcome::Rejected(RejectReason::ReplicaDegraded),
                );
                return;
            }
        }
        let slot = self.slots.entry(serial).or_default();
        match slot.status {
            Status::Voted => {
                // A `Voted` slot must carry its code and receipt; a slot
                // corrupted in recovery refuses the ballot instead of
                // panicking the node (the typed path a bad replay takes).
                let Some((used_code, ..)) = slot.used else {
                    self.reject_corrupt_slot(from, request_id, serial);
                    return;
                };
                if used_code == code {
                    let Some(receipt) = slot.receipt else {
                        self.reject_corrupt_slot(from, request_id, serial);
                        return;
                    };
                    self.reply(from, request_id, serial, VoteOutcome::Receipt(receipt));
                } else {
                    self.reply(
                        from,
                        request_id,
                        serial,
                        VoteOutcome::Rejected(RejectReason::AlreadyVotedDifferentCode),
                    );
                }
            }
            Status::Pending => {
                // Same typed handling on the recovery-adjacent path: a
                // `Pending` slot without a code is corrupt, not a panic.
                let Some((used_code, ..)) = slot.used else {
                    self.reject_corrupt_slot(from, request_id, serial);
                    return;
                };
                if used_code == code {
                    // Remember the client; reply when the receipt is ready.
                    slot.waiting.push((from, request_id, code));
                } else {
                    self.reply(
                        from,
                        request_id,
                        serial,
                        VoteOutcome::Rejected(RejectReason::AlreadyVotedDifferentCode),
                    );
                }
            }
            Status::NotVoted => {
                if let Some((active, ..)) = slot.used {
                    // An endorsement round is already in flight for this
                    // ballot (we are its responder).
                    if active == code {
                        slot.waiting.push((from, request_id, code));
                    } else {
                        self.reply(
                            from,
                            request_id,
                            serial,
                            VoteOutcome::Rejected(RejectReason::AlreadyVotedDifferentCode),
                        );
                    }
                    return;
                }
                let Some((part, row)) = ballot.find_code(&code) else {
                    self.reply(
                        from,
                        request_id,
                        serial,
                        VoteOutcome::Rejected(RejectReason::InvalidVoteCode),
                    );
                    return;
                };
                // Become the responder: collect endorsements.
                slot.used = Some((code, part, row));
                slot.waiting.push((from, request_id, code));
                slot.endorsements.clear();
                self.jlog(|| VcRecord::Used {
                    serial,
                    code,
                    part,
                    row: row as u32,
                });
                // Our own endorsement (also blocks endorsing other codes).
                if let Some(sig) = self.endorse(serial, code) {
                    let me = self.init.node_index;
                    let slot = self.slots.entry(serial).or_default();
                    slot.endorsements.push((me, sig));
                }
                // No barrier: both records ride to the VOTE_P barrier.
                // lint:allow(commit-order, durability table: `Used` and the responder's own `Endorsed`)
                self.multicast_others(Msg::Endorse {
                    serial,
                    vote_code: code,
                });
                self.check_ucert_complete(serial);
            }
        }
    }

    /// Signs this node's endorsement of `code` and journals `Endorsed`,
    /// unless it endorsed another code; the caller owns the barrier.
    fn endorse(&mut self, serial: SerialNo, code: VoteCode) -> Option<Signature> {
        if self.endorsed(serial).is_some_and(|prev| prev != code) {
            return None;
        }
        let signature = self.endorsement_signature(serial, code);
        let slot = self.slots.entry(serial).or_default();
        slot.my_endorsed = Some(code);
        slot.my_signature = Some(signature);
        self.jlog(|| VcRecord::Endorsed { serial, code });
        Some(signature)
    }

    /// This node's signature endorsing `code` for `serial`; records
    /// nothing.
    pub(crate) fn endorsement_signature(&self, serial: SerialNo, code: VoteCode) -> Signature {
        let message = endorsement_message(&self.init.params.election_id, serial, &sha256(&code.0));
        self.init.signing_key.sign(&message)
    }

    fn on_endorse(&mut self, from: NodeId, serial: SerialNo, code: VoteCode) {
        if from.kind != NodeKind::Vc || !self.in_voting_hours() {
            return;
        }
        // Read-only: a signature we cannot journal is a promise we might
        // not keep across a restart (re-signing a different code later
        // would break receipt uniqueness), so a degraded node signs only
        // codes it already endorsed durably.
        if self.degraded && self.slots.get(&serial).and_then(|s| s.my_endorsed) != Some(code) {
            return;
        }
        let Some(ballot) = self.store.get(serial) else {
            return;
        };
        if ballot.find_code(&code).is_none() {
            return;
        }
        let Some(signature) = self.endorse(serial, code) else {
            return;
        };
        // Barrier (durability table, a peer's `Endorsed`): a restarted
        // node must never sign a *different* code for this ballot.
        self.persist();
        self.send(
            from,
            Msg::Endorsement {
                serial,
                vote_code: code,
                signature,
            },
        );
    }

    fn on_endorsement(&mut self, from: NodeId, serial: SerialNo, code: VoteCode, sig: Signature) {
        if from.kind != NodeKind::Vc {
            return;
        }
        let sender = from.index;
        let eid = self.init.params.election_id;
        let Some(vk) = self.init.vc_keys.get(sender as usize).copied() else {
            return;
        };
        // Only relevant while we are responder for exactly this code.
        if self.collecting_slot(serial, code, sender).is_none() {
            self.sigs_skipped += 1;
            return;
        }
        if !self.mverify.check(
            &vk,
            &endorsement_message(&eid, serial, &sha256(&code.0)),
            &sig,
        ) {
            return;
        }
        let Some(slot) = self.slots.get_mut(&serial) else {
            return;
        };
        slot.endorsements.push((sender, sig));
        self.check_ucert_complete(serial);
    }

    /// Forms the UCERT once `Nv−fv` endorsements are in, then discloses our
    /// receipt share (VOTE_P).
    fn check_ucert_complete(&mut self, serial: SerialNo) {
        let quorum = self.quorum();
        let Some(slot) = self.slots.get_mut(&serial) else {
            return;
        };
        if slot.status != Status::NotVoted || slot.ucert.is_some() {
            return;
        }
        if slot.endorsements.len() < quorum {
            return;
        }
        // A responder slot always carries its code; one that lost it is
        // corrupt — refuse to certify rather than abort the replica.
        let Some((code, part, row)) = slot.used else {
            self.corrupt_slots.push("dropped_ucert");
            return;
        };
        let ucert = Arc::new(UCert {
            serial,
            vote_code: code,
            sigs: slot.endorsements.clone(),
        });
        self.verified_ucerts.insert(ucert.key_digest());
        if let Some(slot) = self.slots.get_mut(&serial) {
            slot.ucert = Some(ucert.clone());
            slot.status = Status::Pending;
        }
        let ucert_rec = (*ucert).clone();
        self.jlog(move || VcRecord::Certified {
            serial,
            ucert: ucert_rec,
        });
        self.jlog(|| VcRecord::Pending { serial });
        self.disclose_share(serial, code, part, row, ucert);
        self.try_reconstruct(serial);
    }

    /// Stores our own receipt share — EA-dealt, nothing to check — and
    /// discloses it (VOTE_P) to the other collectors, each with the EA's
    /// tag for that collector.
    fn disclose_share(
        &mut self,
        serial: SerialNo,
        code: VoteCode,
        part: PartId,
        row: usize,
        ucert: Arc<UCert>,
    ) {
        let Some(ballot) = self.store.get(serial) else {
            return;
        };
        let dealt = &ballot.parts[part.index()][row];
        let share = dealt.receipt_share;
        let slot = self.slots.entry(serial).or_default();
        if slot.my_share_sent {
            return;
        }
        slot.my_share_sent = true;
        if slot.add_share(share) {
            self.jlog(|| VcRecord::ShareStored { serial, share });
        }
        self.jlog(|| VcRecord::ShareSent { serial });
        // Barrier (durability table, `Certified` … `ShareSent`, the
        // responder's `Endorsed` riding in): a discloser keeps its UCERT.
        self.persist();
        let me = self.init.node_index;
        for to in 0..self.init.params.num_vc as u32 {
            if let Some(tag) = dealt.tag_for(me, to) {
                self.send(
                    NodeId::vc(to),
                    Msg::VoteP {
                        serial,
                        vote_code: code,
                        share,
                        tag: *tag,
                        ucert: ucert.clone(),
                    },
                );
            }
        }
    }

    fn verify_ucert(&mut self, ucert: &UCert) -> bool {
        let digest = ucert.key_digest();
        if self.verified_ucerts.contains(&digest) {
            self.sigs_skipped += ucert.sigs.len() as u64;
            return true;
        }
        // Batched mirror of `UCert::verify`: verify every signature from
        // a known VC node in one batch, then count distinct node indices
        // with at least one valid signature. Outcome-equivalent to the
        // scalar short-circuit loop — it reaches quorum iff that loop
        // does — but pays one batch instead of `Nv−fv` ladders. This
        // node's own endorsement, byte for byte, is valid as it stands.
        let msg = endorsement_message(
            &self.init.params.election_id,
            ucert.serial,
            &sha256(&ucert.vote_code.0),
        );
        let mut valid: BTreeSet<u32> = BTreeSet::new();
        let mut idxs: Vec<u32> = Vec::with_capacity(ucert.sigs.len());
        let mut items: Vec<(VerifyingKey, Vec<u8>, Signature)> =
            Vec::with_capacity(ucert.sigs.len());
        for (idx, sig) in &ucert.sigs {
            if self.is_own_endorsement(ucert.serial, ucert.vote_code, *idx, sig) {
                self.sigs_own += 1;
                valid.insert(*idx);
            } else if let Some(vk) = self.init.vc_keys.get(*idx as usize) {
                idxs.push(*idx);
                items.push((*vk, msg.clone(), *sig));
            }
        }
        let verdicts = self.mverify.check_batch(&items);
        valid.extend(
            idxs.iter()
                .zip(&verdicts)
                .filter(|(_, &ok)| ok)
                .map(|(&i, _)| i),
        );
        if valid.len() >= self.quorum() {
            self.verified_ucerts.insert(digest);
            true
        } else {
            false
        }
    }

    fn on_vote_p(
        &mut self,
        from: NodeId,
        serial: SerialNo,
        code: VoteCode,
        share: Share,
        tag: ShareTag,
        ucert: Arc<UCert>,
    ) {
        if from.kind != NodeKind::Vc || !self.in_voting_hours() {
            return;
        }
        if ucert.serial != serial || ucert.vote_code != code {
            return;
        }
        // The common late VOTE_P — the quorum's last echo, a re-delivery —
        // is dropped before any signature work.
        if self.vote_p_is_redundant(serial, code, share.index) {
            self.sigs_skipped += ucert.sigs.len() as u64;
            return;
        }
        // The share's EA tag for this node goes first: one keyed hash, so
        // a message with a bad share costs no signature check.
        let Some((part, row)) = self.store.get(serial).and_then(|b| b.find_code(&code)) else {
            self.sigs_skipped += ucert.sigs.len() as u64;
            return;
        };
        let ctx = receipt_share_context(&self.init.params.election_id, serial, part, row);
        if !DealerVss::check_tag(&self.init.tag_key, &ctx, &share, &tag) {
            self.sigs_skipped += ucert.sigs.len() as u64;
            return;
        }
        if !self.verify_ucert(&ucert) {
            return;
        }
        let mut became_pending = false;
        let mut certified_now = false;
        let store_share;
        {
            let slot = self.slots.entry(serial).or_default();
            match slot.status {
                Status::NotVoted => {
                    slot.status = Status::Pending;
                    slot.used = Some((code, part, row));
                    slot.ucert = Some(ucert.clone());
                    became_pending = true;
                }
                Status::Pending | Status::Voted => {
                    // An active slot must carry its code; a slot corrupted
                    // in recovery drops the message instead of panicking.
                    let Some((used_code, ..)) = slot.used else {
                        self.corrupt_slots.push("dropped_vote_p");
                        return;
                    };
                    if used_code != code {
                        // A valid UCERT for a different code cannot exist
                        // alongside ours (quorum intersection); drop.
                        return;
                    }
                    if slot.ucert.is_none() {
                        slot.ucert = Some(ucert.clone());
                        certified_now = true;
                    }
                }
            }
            store_share = slot.add_share(share);
        }
        if became_pending {
            let ucert_rec = (*ucert).clone();
            self.jlog(|| VcRecord::Used {
                serial,
                code,
                part,
                row: row as u32,
            });
            self.jlog(move || VcRecord::Certified {
                serial,
                ucert: ucert_rec,
            });
            self.jlog(|| VcRecord::Pending { serial });
        } else if certified_now {
            let ucert_rec = (*ucert).clone();
            self.jlog(move || VcRecord::Certified {
                serial,
                ucert: ucert_rec,
            });
        }
        if store_share {
            self.jlog(|| VcRecord::ShareStored { serial, share });
        }
        if became_pending {
            self.disclose_share(serial, code, part, row, ucert);
        }
        self.try_reconstruct(serial);
    }

    // ----- vote-set consensus (§III-E end-of-election) ---------------------

    fn begin_announce(&mut self) {
        self.phase = Phase::Announce;
        let entries: Vec<AnnounceEntry> = (0..self.store.num_ballots())
            .map(|s| {
                let serial = SerialNo(s);
                let vote = self.slots.get(&serial).and_then(|slot| {
                    let (code, ..) = slot.used?;
                    let ucert = slot.ucert.clone()?;
                    Some((code, ucert))
                });
                AnnounceEntry { serial, vote }
            })
            .collect();
        // Barrier (durability table, last row), once an election.
        self.persist();
        self.multicast(Msg::Announce {
            entries: Arc::new(entries),
        });
        // Serve the dispersals of peers whose polls closed before ours.
        let buffered = std::mem::take(&mut self.buffered_announces);
        for (from, entries) in buffered {
            self.on_announce(from, entries);
        }
    }

    fn on_announce(&mut self, from: NodeId, entries: Arc<Vec<AnnounceEntry>>) {
        if from.kind != NodeKind::Vc {
            return;
        }
        if self.phase == Phase::Voting {
            // ANNOUNCE is multicast exactly once per peer; a node whose
            // clock has not reached `Tend` yet must hold it, not drop it
            // (at most one buffered dispersal per sender).
            if !self.buffered_announces.iter().any(|(f, _)| *f == from) {
                self.buffered_announces.push((from, entries));
            }
            return;
        }
        if !self.announce_from.insert(from.index) {
            return;
        }
        for entry in entries.iter() {
            let Some((code, ucert)) = &entry.vote else {
                continue;
            };
            self.adopt_code(entry.serial, *code, ucert.clone());
        }
        if self.phase == Phase::Announce && self.announce_from.len() >= self.quorum() {
            self.begin_consensus();
        }
    }

    /// Adopts a (code, UCERT) learned from a peer for a ballot we had no
    /// certified code for.
    fn adopt_code(&mut self, serial: SerialNo, code: VoteCode, ucert: Arc<UCert>) {
        let known = self
            .slots
            .get(&serial)
            .map(|s| s.ucert.is_some())
            .unwrap_or(false);
        if known {
            return;
        }
        if ucert.serial != serial || ucert.vote_code != code || !self.verify_ucert(&ucert) {
            return;
        }
        let Some(ballot) = self.store.get(serial) else {
            return;
        };
        let Some((part, row)) = ballot.find_code(&code) else {
            return;
        };
        let slot = self.slots.entry(serial).or_default();
        slot.used = Some((code, part, row));
        slot.ucert = Some(ucert.clone());
        self.jlog(|| VcRecord::Used {
            serial,
            code,
            part,
            row: row as u32,
        });
        let ucert_rec = (*ucert).clone();
        self.jlog(move || VcRecord::Certified {
            serial,
            ucert: ucert_rec,
        });
    }

    fn begin_consensus(&mut self) {
        self.phase = Phase::Consensus;
        let initial: Vec<bool> = (0..self.store.num_ballots())
            .map(|s| {
                self.slots
                    .get(&SerialNo(s))
                    .is_some_and(|slot| slot.ucert.is_some())
            })
            .collect();
        let (bc, msgs) = BatchConsensus::new(
            self.init.params.num_vc,
            self.init.params.vc_faults(),
            self.init.node_index,
            initial,
            self.beacon,
        );
        self.consensus = Some(bc);
        for m in msgs {
            self.multicast(Msg::Consensus(m));
        }
        let buffered = std::mem::take(&mut self.buffered_consensus);
        for (from, cm) in buffered {
            self.feed_consensus(from, cm);
        }
    }

    fn on_consensus(&mut self, from: NodeId, cm: ConsensusMsg) {
        if from.kind != NodeKind::Vc {
            return;
        }
        if self.consensus.is_none() {
            self.buffered_consensus.push((from.index, cm));
            return;
        }
        self.feed_consensus(from.index, cm);
    }

    fn feed_consensus(&mut self, from: u32, cm: ConsensusMsg) {
        let Some(bc) = self.consensus.as_mut() else {
            return;
        };
        let outs = bc.handle(from, &cm);
        for m in outs {
            self.multicast(Msg::Consensus(m));
        }
        if self.decision.is_none() {
            let decided = self
                .consensus
                .as_ref()
                .and_then(|b| Some((b.decision()?, b.round())));
            if let Some((decision, rounds)) = decided {
                self.decided_round = Some(rounds);
                self.decision = Some(decision);
                self.begin_recover();
            }
        }
    }

    fn begin_recover(&mut self) {
        self.phase = Phase::Recover;
        // Entering recovery without a decision would be a driver bug; a
        // replica drops into Done-less limbo rather than panicking.
        let Some(decision) = self.decision.clone() else {
            return;
        };
        let mut missing = Vec::new();
        for (i, voted) in decision.iter().enumerate() {
            if !voted {
                continue;
            }
            let serial = SerialNo(i as u64);
            let known = self
                .slots
                .get(&serial)
                .map(|s| s.ucert.is_some())
                .unwrap_or(false);
            if !known {
                missing.push(serial);
            }
        }
        for serial in missing {
            self.multicast(Msg::RecoverRequest { serial });
        }
        self.try_finalize();
    }

    fn on_recover_request(&mut self, from: NodeId, serial: SerialNo) {
        if from.kind != NodeKind::Vc || self.phase == Phase::Voting {
            return;
        }
        let Some(slot) = self.slots.get(&serial) else {
            return;
        };
        let (Some((code, ..)), Some(ucert)) = (slot.used, slot.ucert.clone()) else {
            return;
        };
        self.send(
            from,
            Msg::RecoverResponse {
                serial,
                vote_code: code,
                ucert,
            },
        );
    }

    fn on_recover_response(&mut self, serial: SerialNo, code: VoteCode, ucert: Arc<UCert>) {
        if self.phase != Phase::Recover {
            return;
        }
        self.adopt_code(serial, code, ucert);
        self.try_finalize();
    }

    fn try_finalize(&mut self) {
        if self.phase != Phase::Recover {
            return;
        }
        let Some(decision) = self.decision.as_ref() else {
            return;
        };
        let mut set = VoteSet::default();
        for (i, voted) in decision.iter().enumerate() {
            if !voted {
                continue;
            }
            let serial = SerialNo(i as u64);
            let Some(slot) = self.slots.get(&serial) else {
                return; // still waiting on RECOVER responses
            };
            match slot.used.map(|(c, ..)| c) {
                Some(code) if slot.ucert.is_some() => {
                    set.entries.insert(serial, code);
                }
                _ => return, // still waiting on RECOVER responses
            }
        }
        let digest = set.digest();
        let msg =
            ddemos_protocol::initdata::voteset_message(&self.init.params.election_id, &digest);
        let signature = self.init.signing_key.sign(&msg);
        self.finalized = true;
        self.jlog(|| VcRecord::Finalized);
        // Barrier (durability table, `Finalized`): durable before delivery
        // — a recovered node must not release a second finalized set.
        self.persist();
        self.out(VcOutput::Deliver(FinalizedVoteSet {
            node_index: self.init.node_index,
            vote_set: set,
            signature,
            msk_share: self.init.msk_share,
        }));
        self.phase = Phase::Done;
    }
}
