//! Byzantine collectors, on the step boundary.
//!
//! The threat model (§III-C) lets up to `fv < Nv/3` vote collectors
//! deviate arbitrarily, so a corrupted collector is a party *outside* the
//! honest protocol. [`VcCore`] is the honest machine ([`HonestCore`]) plus
//! at most one [`Adversary`] on its `step` boundary, which filters the
//! inputs and rewrites, drops or forges the outputs. The layer holds only
//! what a corrupted node holds — its signing key, its dealt data (read
//! through the core's read-only accessors) and what it saw cross the
//! boundary. Without an adversary every input passes straight through.
//!
//! One type describes every adversary: a [`VcBehavior`] preset (*what*)
//! armed by a [`Trigger`] over the [`AdversaryView`] (*when*) with a fire
//! budget. A static preset is `Trigger::Always` with an unlimited budget;
//! `CrashAfterVotes(n)` is `Crashed` behind `Trigger::AfterVotes(n)`.

use crate::core::{HonestCore, VcInput, VcOutput};
use crate::store::BallotStore;
use ddemos_crypto::field::Scalar;
use ddemos_crypto::votecode::VoteCode;
use ddemos_protocol::initdata::VcInit;
use ddemos_protocol::messages::{ConsensusPayload, Envelope, Msg};
use ddemos_protocol::{NodeId, NodeKind, SerialNo};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

/// What a Byzantine collector does: the presets of [`Adversary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VcBehavior {
    /// Follows the protocol (no adversary).
    #[default]
    Honest,
    /// Ignores every delivered envelope (fail-stop from the start); its
    /// clock still runs.
    Crashed,
    /// Follows the protocol, then fail-stops after handling this many VOTE
    /// messages.
    CrashAfterVotes(u64),
    /// Endorses every vote code it is asked about, ignoring the
    /// one-endorsement-per-ballot rule (attempts to enable double voting).
    EquivocalEndorser,
    /// Discloses corrupted receipt shares in VOTE_P (the EA signature check
    /// at honest receivers must reject them).
    CorruptShares,
    /// Participates in endorsement but never discloses receipt shares.
    WithholdShares,
    /// Enters vote-set consensus with an inverted opinion vector and
    /// refuses RECOVER assistance.
    ConsensusInverter,
}

/// What an [`Adversary`]'s trigger gets to look at when an act is
/// possible: what the corrupted node saw cross its step boundary, not the
/// global schedule. This is what makes the adversary *adaptive*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryView {
    /// ENDORSEMENT messages received from collectors or sent, forged ones
    /// included (unverified: the layer sees messages, not verdicts).
    pub endorsements_seen: u64,
    /// VOTE messages handled.
    pub votes_seen: u64,
    /// The ballot serial the pending act concerns, when there is one.
    pub serial: Option<u64>,
}

/// A predicate over observed protocol state (see [`AdversaryView`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Always satisfied (a static adversary).
    Always,
    /// Satisfied once the node has seen at least this many endorsements
    /// — e.g. `AfterEndorsements(fv)` waits until the adversary has
    /// *seen* `fv` endorsements before striking.
    AfterEndorsements(u64),
    /// Satisfied once the node has handled at least this many votes.
    AfterVotes(u64),
    /// Satisfied only for ballot serials in this inclusive range (a
    /// targeted attack on a block of voters).
    SerialInRange(u64, u64),
}

impl Trigger {
    /// Whether the predicate holds for this observation.
    pub fn satisfied(&self, view: AdversaryView) -> bool {
        match *self {
            Trigger::Always => true,
            Trigger::AfterEndorsements(n) => view.endorsements_seen >= n,
            Trigger::AfterVotes(n) => view.votes_seen >= n,
            Trigger::SerialInRange(lo, hi) => view.serial.is_some_and(|s| s >= lo && s <= hi),
        }
    }
}

/// A Byzantine collector: a [`VcBehavior`] preset armed by a [`Trigger`],
/// with a fire budget. It follows the protocol until its trigger holds,
/// then acts at most `budget` times — it only chooses *when*, which is
/// exactly the capability the paper's asynchronous adversary has
/// (§III-C: it schedules delivery and corruption adaptively).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Adversary {
    action: VcBehavior,
    trigger: Trigger,
    budget: u64,
    fired: u64,
    /// What the node has seen cross its boundary so far.
    seen: AdversaryView,
    /// Acts since the last [`VcCore::take_adversary_acts`].
    acts: u64,
}

impl Adversary {
    /// An adversary performing `action` whenever `trigger` is satisfied,
    /// at most `budget` times.
    pub fn new(action: VcBehavior, trigger: Trigger, budget: u64) -> Adversary {
        Adversary {
            action,
            trigger,
            budget,
            fired: 0,
            seen: AdversaryView::default(),
            acts: 0,
        }
    }

    /// One-shot equivocation, armed only after the node has seen `n`
    /// endorsements (classically `n = fv`: strike once the honest quorum
    /// is believably close).
    pub fn equivocate_after_endorsements(n: u64) -> Adversary {
        Adversary::new(
            VcBehavior::EquivocalEndorser,
            Trigger::AfterEndorsements(n),
            1,
        )
    }

    /// Withholds receipt shares, but only for ballot serials in
    /// `lo..=hi` (every other voter is served honestly — the hardest
    /// kind of misbehavior to notice from aggregate statistics).
    pub fn withhold_shares_for_serials(lo: u64, hi: u64) -> Adversary {
        Adversary::new(
            VcBehavior::WithholdShares,
            Trigger::SerialInRange(lo, hi),
            u64::MAX,
        )
    }

    /// Discloses corrupted receipt shares for serials in `lo..=hi`.
    pub fn corrupt_shares_for_serials(lo: u64, hi: u64) -> Adversary {
        Adversary::new(
            VcBehavior::CorruptShares,
            Trigger::SerialInRange(lo, hi),
            u64::MAX,
        )
    }

    /// The preset this adversary performs when it fires.
    pub fn action(&self) -> VcBehavior {
        self.action
    }

    /// Whether this adversary acts on what its node has seen, for an act
    /// concerning `serial`, **latching** a fire (consuming budget) when it
    /// does. The layer asks only where the act would change what crosses
    /// the boundary, so the budget bounds violations committed, not
    /// predicate evaluations.
    fn fires(&mut self, serial: Option<SerialNo>) -> bool {
        let view = AdversaryView {
            serial: serial.map(|s| s.0),
            ..self.seen
        };
        if self.fired >= self.budget || !self.trigger.satisfied(view) {
            return false;
        }
        self.fired += 1;
        true
    }

    /// One step of `honest` through this adversary.
    fn step<S: BallotStore>(
        &mut self,
        honest: &mut HonestCore<S>,
        mut input: VcInput,
        now_ms: u64,
    ) -> Vec<VcOutput> {
        let crash = matches!(
            self.action,
            VcBehavior::Crashed | VcBehavior::CrashAfterVotes(_)
        );
        // A crashed node hears nothing but the fault injector's power
        // cycle, and its clock still runs.
        if matches!(&input, VcInput::Deliver(env)
            if crash && !matches!(env.msg, Msg::Amnesia) && self.fires(None))
        {
            self.acts += 1;
            input = VcInput::Tick;
        }
        // A VOTE, or a peer responder's ENDORSE: requests the equivocator
        // may answer with a second code.
        let mut request = None;
        if let VcInput::Deliver(env) = &input {
            match env.msg {
                Msg::Vote {
                    serial, vote_code, ..
                } => {
                    self.seen.votes_seen += 1;
                    request = Some((None, serial, vote_code));
                }
                Msg::Endorse { serial, vote_code } if env.from.kind == NodeKind::Vc => {
                    request = Some((Some(env.from), serial, vote_code));
                }
                Msg::Endorsement { .. } if env.from.kind == NodeKind::Vc => {
                    self.seen.endorsements_seen += 1;
                }
                _ => {}
            }
        }
        let entering_consensus = !honest.in_consensus();
        let mut outputs = honest.step(input, now_ms);
        if let (Some((peer, serial, code)), VcBehavior::EquivocalEndorser) = (request, self.action)
        {
            self.equivocate(honest, peer, serial, code, &mut outputs, now_ms);
        }
        self.rewrite(&mut outputs, entering_consensus && honest.in_consensus());
        outputs
    }

    /// Signs `code` for `serial` once the honest machine has endorsed
    /// another code for it (the signature it refuses): back to the `peer`
    /// responder that asked, or — as the ballot's responder, once its
    /// ENDORSE multicast is out — into its own collection, as a
    /// self-addressed ENDORSEMENT.
    fn equivocate<S: BallotStore>(
        &mut self,
        honest: &mut HonestCore<S>,
        peer: Option<NodeId>,
        serial: SerialNo,
        code: VoteCode,
        outputs: &mut Vec<VcOutput>,
        now_ms: u64,
    ) {
        let responding = outputs.iter().any(|output| {
            matches!(output, VcOutput::Send { msg: Msg::Endorse { serial: s, vote_code: c }, .. }
                if (*s, *c) == (serial, code))
        });
        if honest
            .endorsed(serial)
            .is_none_or(|endorsed| endorsed == code)
            || !(peer.is_some() || responding)
            || !self.fires(Some(serial))
        {
            return;
        }
        self.acts += 1;
        let msg = Msg::Endorsement {
            serial,
            vote_code: code,
            signature: honest.endorsement_signature(serial, code),
        };
        match peer {
            Some(to) => outputs.push(VcOutput::Send { to, msg }),
            None => {
                self.seen.endorsements_seen += 1;
                let me = honest.id();
                let own = Envelope {
                    from: me,
                    to: me,
                    msg,
                };
                outputs.extend(honest.step(VcInput::Deliver(own), now_ms));
            }
        }
    }

    /// Rewrites or drops the sends of one step. A step discloses at most
    /// one share (one decision for all its VOTE_P copies), and in the step
    /// that enters consensus the first consensus multicast is the initial
    /// BVAL vector, whose copies share one payload.
    fn rewrite(&mut self, outputs: &mut Vec<VcOutput>, entering_consensus: bool) {
        let mut disclosure: Option<bool> = None;
        let mut initial: Option<(Arc<ConsensusPayload>, bool)> = None;
        outputs.retain_mut(|output| {
            let VcOutput::Send { msg, .. } = output else {
                return true;
            };
            match (msg, self.action) {
                (Msg::Endorsement { .. }, _) => self.seen.endorsements_seen += 1,
                (Msg::VoteP { serial, share, .. }, VcBehavior::CorruptShares)
                    if *disclosure.get_or_insert_with(|| self.fires(Some(*serial))) =>
                {
                    self.acts += 1;
                    share.share.value += Scalar::ONE;
                }
                (Msg::VoteP { serial, .. }, VcBehavior::WithholdShares)
                    if *disclosure.get_or_insert_with(|| self.fires(Some(*serial))) =>
                {
                    self.acts += 1;
                    return false;
                }
                (Msg::Consensus(cm), VcBehavior::ConsensusInverter) if entering_consensus => {
                    let (first, invert) =
                        initial.get_or_insert_with(|| (cm.payload.clone(), self.fires(None)));
                    if *invert && Arc::ptr_eq(first, &cm.payload) {
                        self.acts += 1;
                        cm.payload = Arc::new(ConsensusPayload {
                            values: first.values.iter().map(|v| v.map(|b| !b)).collect(),
                            ..**first
                        });
                    }
                }
                // The inverter's second half: no RECOVER help once it has
                // struck (a static inverter: ever).
                (Msg::RecoverResponse { .. }, VcBehavior::ConsensusInverter)
                    if self.fired > 0 || self.trigger == Trigger::Always =>
                {
                    self.acts += 1;
                    return false;
                }
                _ => {}
            }
            true
        });
    }
}

/// A static preset: `Trigger::Always` with an unlimited budget, and
/// `CrashAfterVotes(n)` as `Crashed` behind `Trigger::AfterVotes(n)`.
/// `Honest` is no adversary at all.
impl From<VcBehavior> for Option<Adversary> {
    fn from(behavior: VcBehavior) -> Option<Adversary> {
        let (action, trigger) = match behavior {
            VcBehavior::Honest => return None,
            VcBehavior::CrashAfterVotes(n) => (VcBehavior::Crashed, Trigger::AfterVotes(n)),
            action => (action, Trigger::Always),
        };
        Some(Adversary::new(action, trigger, u64::MAX))
    }
}

/// A Vote Collector: the honest machine plus at most one [`Adversary`] on
/// its step boundary (see the module docs). `step` crosses the adversary;
/// every other call reaches the honest core (`post_recovery` emits only
/// receipts and the ANNOUNCE, which no preset touches).
pub struct VcCore<S> {
    honest: HonestCore<S>,
    adversary: Option<Adversary>,
}

impl<S: BallotStore> VcCore<S> {
    /// Creates a collector. `adversary` is a [`VcBehavior`] preset, an
    /// [`Adversary`], or `None`; `durable` must reflect whether the
    /// driver attaches a journal (it gates the journal outputs).
    pub fn new(
        init: VcInit,
        store: S,
        adversary: impl Into<Option<Adversary>>,
        poll: Duration,
        beacon: u64,
        durable: bool,
    ) -> VcCore<S> {
        VcCore {
            honest: HonestCore::new(init, store, poll, beacon, durable),
            adversary: adversary.into(),
        }
    }

    /// [`HonestCore::step`], through the adversary.
    pub fn step(&mut self, input: VcInput, now_ms: u64) -> Vec<VcOutput> {
        match &mut self.adversary {
            None => self.honest.step(input, now_ms),
            Some(adversary) => adversary.step(&mut self.honest, input, now_ms),
        }
    }

    /// Acts the adversary committed since the last call — inputs dropped
    /// and outputs rewritten, dropped or forged, one per message — and
    /// its preset. Drivers export them as `vc.adversary_acts{preset}`.
    pub fn take_adversary_acts(&mut self) -> Option<(VcBehavior, u64)> {
        let adversary = self.adversary.as_mut()?;
        let acts = std::mem::take(&mut adversary.acts);
        (acts > 0).then_some((adversary.action, acts))
    }
}

impl<S> Deref for VcCore<S> {
    type Target = HonestCore<S>;

    fn deref(&self) -> &HonestCore<S> {
        &self.honest
    }
}

impl<S> DerefMut for VcCore<S> {
    fn deref_mut(&mut self) -> &mut HonestCore<S> {
        &mut self.honest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use ddemos_crypto::schnorr::SigningKey;
    use ddemos_crypto::sha256::sha256;
    use ddemos_crypto::shamir::Share;
    use ddemos_crypto::votecode::VoteCodeHash;
    use ddemos_crypto::vss::{DealerVss, SignedShare};
    use ddemos_protocol::initdata::{endorsement_message, receipt_share_context, VcBallot, VcRow};
    use ddemos_protocol::{ElectionParams, PartId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// The collector under test, in a four-collector election (`fv = 1`,
    /// quorum 3).
    const ME: u32 = 1;
    const BALLOTS: u64 = 4;
    /// Inside the voting window.
    const NOW_MS: u64 = 1;

    fn code(serial: u64, part: PartId) -> VoteCode {
        VoteCode([serial as u8 * 2 + part.index() as u8 + 1; 20])
    }

    /// A hand-dealt election: every collector's signing key and the EA key
    /// that signs collector `ME`'s receipt shares (one row a part).
    struct Dealt {
        params: ElectionParams,
        keys: Vec<SigningKey>,
        ea: SigningKey,
    }

    impl Dealt {
        fn new() -> Dealt {
            let mut rng = StdRng::seed_from_u64(35);
            Dealt {
                params: ElectionParams::new("boundary", BALLOTS, 2, 4, 1, 1, 1, 0, 3_600_000)
                    .expect("params"),
                keys: (0..4).map(|_| SigningKey::generate(&mut rng)).collect(),
                ea: SigningKey::generate(&mut rng),
            }
        }

        fn context(&self, serial: u64, part: PartId) -> Vec<u8> {
            receipt_share_context(&self.params.election_id, SerialNo(serial), part, 0)
        }

        fn share(&self, serial: u64, part: PartId) -> SignedShare {
            let share = Share {
                index: ME + 1,
                value: Scalar::ONE,
            };
            DealerVss::sign(&self.ea, &self.context(serial, part), &[share])[0]
        }

        fn core(&self, adversary: impl Into<Option<Adversary>>) -> VcCore<MemoryStore> {
            let ballots: BTreeMap<SerialNo, VcBallot> = (0..BALLOTS)
                .map(|serial| {
                    let row = |part| VcRow {
                        code_hash: VoteCodeHash::commit(&code(serial, part), 7),
                        receipt_share: self.share(serial, part),
                    };
                    let parts = [vec![row(PartId::A)], vec![row(PartId::B)]];
                    (SerialNo(serial), VcBallot { parts })
                })
                .collect();
            let init = VcInit {
                params: self.params.clone(),
                node_index: ME,
                signing_key: self.keys[ME as usize],
                vc_keys: self.keys.iter().map(SigningKey::verifying_key).collect(),
                ea_key: self.ea.verifying_key(),
                msk_share: self.share(0, PartId::A),
                ballots: BTreeMap::new(),
            };
            let store = MemoryStore::new(ballots, BALLOTS);
            VcCore::new(init, store, adversary, Duration::from_millis(1), 0, false)
        }

        fn endorsement_message(&self, serial: u64, part: PartId) -> Vec<u8> {
            endorsement_message(
                &self.params.election_id,
                SerialNo(serial),
                &sha256(&code(serial, part).0),
            )
        }

        /// Collector `signer`'s endorsement of `(serial, part)`, to `ME`.
        fn endorsement(&self, signer: u32, serial: u64, part: PartId) -> VcInput {
            let signature =
                self.keys[signer as usize].sign(&self.endorsement_message(serial, part));
            to_me(
                NodeId::vc(signer),
                Msg::Endorsement {
                    serial: SerialNo(serial),
                    vote_code: code(serial, part),
                    signature,
                },
            )
        }
    }

    fn to_me(from: NodeId, msg: Msg) -> VcInput {
        VcInput::Deliver(Envelope {
            from,
            to: NodeId::vc(ME),
            msg,
        })
    }

    fn vote(serial: u64, part: PartId) -> VcInput {
        to_me(
            NodeId::client(9),
            Msg::Vote {
                request_id: serial,
                serial: SerialNo(serial),
                vote_code: code(serial, part),
            },
        )
    }

    /// Collector `from` (the responder) asks `ME` to endorse.
    fn endorse(from: u32, serial: u64, part: PartId) -> VcInput {
        to_me(
            NodeId::vc(from),
            Msg::Endorse {
                serial: SerialNo(serial),
                vote_code: code(serial, part),
            },
        )
    }

    fn step(core: &mut VcCore<MemoryStore>, input: VcInput) -> Vec<VcOutput> {
        core.step(input, NOW_MS)
    }

    fn encoded(outputs: &[VcOutput]) -> Vec<Vec<u8>> {
        outputs.iter().map(VcOutput::encode).collect()
    }

    fn sent(outputs: &[VcOutput]) -> Vec<(NodeId, &Msg)> {
        outputs
            .iter()
            .filter_map(|output| match output {
                VcOutput::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    /// Makes `ME` the responder for `(serial, A)` and hands it the two
    /// peer endorsements that complete the UCERT; returns what the last
    /// step emitted (the VOTE_P disclosure, if any).
    fn certify(dealt: &Dealt, core: &mut VcCore<MemoryStore>, serial: u64) -> Vec<VcOutput> {
        step(core, vote(serial, PartId::A));
        step(core, dealt.endorsement(0, serial, PartId::A));
        step(core, dealt.endorsement(2, serial, PartId::A))
    }

    fn vote_p_shares(outputs: &[VcOutput]) -> Vec<SignedShare> {
        sent(outputs)
            .into_iter()
            .filter_map(|(_, msg)| match msg {
                Msg::VoteP { share, .. } => Some(*share),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn crash_after_two_votes_ignores_the_third_vote_and_all_later_envelopes() {
        let dealt = Dealt::new();
        let mut honest = dealt.core(VcBehavior::Honest);
        let mut crashing = dealt.core(VcBehavior::CrashAfterVotes(2));
        for serial in 0..2 {
            let expected = step(&mut honest, vote(serial, PartId::A));
            assert!(!expected.is_empty());
            let outputs = step(&mut crashing, vote(serial, PartId::A));
            assert_eq!(encoded(&outputs), encoded(&expected));
        }
        for input in [
            vote(2, PartId::A),
            endorse(0, 3, PartId::A),
            vote(0, PartId::B),
        ] {
            assert!(!step(&mut honest, input.clone()).is_empty());
            assert!(step(&mut crashing, input).is_empty());
        }
        assert_eq!(
            crashing.take_adversary_acts(),
            Some((VcBehavior::Crashed, 3))
        );
        // Its clock still runs: closing the polls announces.
        let closed = step(&mut crashing, VcInput::ClosePolls);
        assert_eq!(
            sent(&closed)
                .iter()
                .filter(|(_, msg)| matches!(msg, Msg::Announce { .. }))
                .count(),
            4
        );
        assert_eq!(crashing.take_adversary_acts(), None);
    }

    #[test]
    fn equivocal_endorser_signs_a_second_code_in_both_roles() {
        let dealt = Dealt::new();
        let mine = dealt.keys[ME as usize].verifying_key();
        let mut honest = dealt.core(VcBehavior::Honest);
        let mut equivocal = dealt.core(VcBehavior::EquivocalEndorser);

        // As endorser: code A for collector 0, then code B for collector 2.
        for core in [&mut honest, &mut equivocal] {
            assert_eq!(sent(&step(core, endorse(0, 0, PartId::A))).len(), 1);
        }
        assert!(step(&mut honest, endorse(2, 0, PartId::B)).is_empty());
        let second = step(&mut equivocal, endorse(2, 0, PartId::B));
        let [(to, Msg::Endorsement { signature, .. })] = sent(&second)[..] else {
            panic!("no second endorsement: {second:?}");
        };
        assert_eq!(to, NodeId::vc(2));
        assert!(mine.verify(&dealt.endorsement_message(0, PartId::B), signature));

        // As responder: it endorsed A for collector 0, then a voter makes
        // it responder for B. Its own signature on B plus two peers' form
        // the UCERT; the honest node is one signature short.
        let mut last = Vec::new();
        for core in [&mut honest, &mut equivocal] {
            step(core, endorse(0, 1, PartId::A));
            step(core, vote(1, PartId::B));
            step(core, dealt.endorsement(0, 1, PartId::B));
            last.push(step(core, dealt.endorsement(2, 1, PartId::B)));
        }
        assert!(vote_p_shares(&last[0]).is_empty());
        let ucert = sent(&last[1])
            .into_iter()
            .find_map(|(_, msg)| match msg {
                Msg::VoteP { ucert, .. } => Some(ucert.clone()),
                _ => None,
            })
            .expect("the equivocator certifies B");
        let own = ucert
            .sigs
            .iter()
            .find(|(signer, _)| *signer == ME)
            .expect("its own signature is in the UCERT");
        assert!(mine.verify(&dealt.endorsement_message(1, PartId::B), &own.1));
        assert_eq!(
            equivocal.take_adversary_acts(),
            Some((VcBehavior::EquivocalEndorser, 2))
        );
    }

    #[test]
    fn consensus_inverter_negates_its_first_bval_vector_and_refuses_recover() {
        let dealt = Dealt::new();
        let mut vectors = Vec::new();
        let mut recover = Vec::new();
        let mut cores = [
            dealt.core(VcBehavior::Honest),
            dealt.core(VcBehavior::ConsensusInverter),
        ];
        for core in &mut cores {
            certify(&dealt, core, 0);
            let closed = step(core, VcInput::ClosePolls);
            let entries = sent(&closed)
                .into_iter()
                .find_map(|(_, msg)| match msg {
                    Msg::Announce { entries } => Some(entries.clone()),
                    _ => None,
                })
                .expect("closing the polls announces");
            let mut entered = Vec::new();
            for from in [ME, 0, 2] {
                let msg = Msg::Announce {
                    entries: entries.clone(),
                };
                entered = step(core, to_me(NodeId::vc(from), msg));
            }
            let bvals: Vec<Vec<Option<bool>>> = sent(&entered)
                .into_iter()
                .filter_map(|(_, msg)| match msg {
                    Msg::Consensus(cm) => Some(cm.payload.values.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(bvals.len(), 4, "one initial BVAL to every collector");
            vectors.push(bvals);
            let request = Msg::RecoverRequest {
                serial: SerialNo(0),
            };
            recover.push(step(core, to_me(NodeId::vc(0), request)));
        }
        let honest = &vectors[0][0];
        assert_eq!(honest[0], Some(true));
        assert_eq!(honest[1], Some(false));
        let negated: Vec<Option<bool>> = honest.iter().map(|v| v.map(|b| !b)).collect();
        assert!(vectors[1].iter().all(|vector| *vector == negated));
        assert!(matches!(
            sent(&recover[0])[..],
            [(_, Msg::RecoverResponse { .. })]
        ));
        assert!(recover[1].is_empty());
        let [_, inverter] = &mut cores;
        assert_eq!(
            inverter.take_adversary_acts(),
            Some((VcBehavior::ConsensusInverter, 5))
        );
    }

    #[test]
    fn withholding_collector_emits_no_vote_p() {
        let dealt = Dealt::new();
        let mut honest = dealt.core(VcBehavior::Honest);
        assert_eq!(vote_p_shares(&certify(&dealt, &mut honest, 0)).len(), 3);
        let mut withholding = dealt.core(VcBehavior::WithholdShares);
        assert!(vote_p_shares(&certify(&dealt, &mut withholding, 0)).is_empty());
        assert_eq!(
            withholding.take_adversary_acts(),
            Some((VcBehavior::WithholdShares, 3))
        );
    }

    #[test]
    fn corrupted_share_fails_the_ea_share_check() {
        let dealt = Dealt::new();
        let ea = dealt.ea.verifying_key();
        let context = dealt.context(0, PartId::A);
        let mut honest = dealt.core(VcBehavior::Honest);
        let mut corrupting = dealt.core(VcBehavior::CorruptShares);
        let good = vote_p_shares(&certify(&dealt, &mut honest, 0));
        let bad = vote_p_shares(&certify(&dealt, &mut corrupting, 0));
        assert_eq!(good.len(), 3);
        assert_eq!(bad.len(), 3);
        for (good, bad) in good.iter().zip(&bad) {
            assert!(DealerVss::verify(&ea, &context, good));
            assert!(!DealerVss::verify(&ea, &context, bad));
            assert_eq!(bad.share.value, good.share.value + Scalar::ONE);
        }
        assert_eq!(
            corrupting.take_adversary_acts(),
            Some((VcBehavior::CorruptShares, 3))
        );
    }

    #[test]
    fn triggers_fire_only_inside_their_serial_range_and_budget() {
        let dealt = Dealt::new();
        let disclosed = |adversary: Adversary| -> Vec<bool> {
            let mut core = dealt.core(adversary);
            (0..BALLOTS)
                .map(|serial| !vote_p_shares(&certify(&dealt, &mut core, serial)).is_empty())
                .collect()
        };
        assert_eq!(
            disclosed(Adversary::withhold_shares_for_serials(1, 2)),
            [true, false, false, true]
        );
        let once = Adversary::new(VcBehavior::WithholdShares, Trigger::Always, 1);
        assert_eq!(disclosed(once), [false, true, true, true]);
    }

    #[test]
    fn one_shot_equivocation_fires_exactly_once() {
        let mut adv = Adversary::equivocate_after_endorsements(2);
        // Not armed yet: fewer endorsements seen than the threshold.
        adv.seen.endorsements_seen = 1;
        assert!(!adv.fires(None));
        // Armed: fires once, and exactly once — the budget is spent.
        adv.seen.endorsements_seen = 2;
        assert!(adv.fires(None));
        assert!(!adv.fires(None));
        adv.seen.endorsements_seen = 3;
        assert!(!adv.fires(None));
    }

    #[test]
    fn serial_range_trigger_is_targeted() {
        let mut adv = Adversary::withhold_shares_for_serials(5, 7);
        assert!(!adv.fires(Some(SerialNo(4))));
        assert!(adv.fires(Some(SerialNo(5))));
        assert!(adv.fires(Some(SerialNo(7))));
        assert!(!adv.fires(Some(SerialNo(8))));
        assert!(!adv.fires(None));
    }
}
