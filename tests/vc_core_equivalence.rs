//! `VcCore` with and without the burst machinery: the same delivery
//! sequence driven (a) one input at a time, never calling `preverify`,
//! and (b) in bursts with `preverify` must give byte-identical step
//! outputs, journal records and voter replies — `preverify` only warms
//! the verified-signature memo, and whatever its need bounds leave out is
//! verified by the step that uses it.
//!
//! The driver is the sans-I/O one: four cores, a FIFO inbox each, every
//! core draining the inbox it finds when its turn comes. The scripts hold
//! a node's inbox back and reorder it where a case needs a particular
//! burst.
//!
//! The same cluster carries the proof the durability budget rests on
//! (DESIGN.md §12.6): it models each node's journal as "records behind an
//! executed barrier survive, the rest do not" and power-cycles a node at
//! every output boundary of a run.

use ddemos_crypto::votecode::VoteCode;
use ddemos_crypto::vss::SignedShare;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_protocol::messages::{Envelope, Msg, UCert, VoteOutcome};
use ddemos_protocol::wire::Writer;
use ddemos_protocol::{ElectionParams, NodeId, NodeKind, SerialNo};
use ddemos_storage::Durable;
use ddemos_vc::{MemoryStore, TraceStep, VcBehavior, VcCore, VcInput, VcOutput};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

const NUM_VC: usize = 4;
/// Inside the voting window: the polls never close in these runs.
const NOW_MS: u64 = 1;
const HONEST: [VcBehavior; NUM_VC] = [VcBehavior::Honest; NUM_VC];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Drive {
    /// One input per step, `preverify` never called.
    Stepwise,
    /// The whole inbox as one burst, `preverify` first.
    Bursts,
}

fn setup() -> SetupOutput {
    let params =
        ElectionParams::new("vc-equivalence", 8, 2, NUM_VC, 1, 1, 1, 0, 3_600_000).expect("params");
    ElectionAuthority::new(params, 29).setup(SetupProfile::VcOnly)
}

fn new_core(setup: &SetupOutput, node: usize, behavior: VcBehavior) -> VcCore<MemoryStore> {
    let mut init = setup.vc_inits[node].clone();
    let rows = std::mem::take(&mut init.ballots);
    let store = MemoryStore::new(rows, setup.params.num_ballots);
    VcCore::new(
        init,
        store,
        behavior,
        Duration::from_millis(1),
        setup.consensus_beacon,
        true,
    )
}

/// Everything a run leaves behind that the two drives must agree on.
#[derive(PartialEq, Debug)]
struct Outcome {
    steps: Vec<Vec<TraceStep>>,
    journals: Vec<Vec<Vec<u8>>>,
    replies: Vec<(NodeId, SerialNo, VoteOutcome)>,
}

struct Cluster<'a> {
    setup: &'a SetupOutput,
    behaviors: [VcBehavior; NUM_VC],
    drive: Drive,
    cores: Vec<VcCore<MemoryStore>>,
    inbox: Vec<VecDeque<Envelope>>,
    /// Nodes whose inbox `pump` leaves alone.
    held: BTreeSet<usize>,
    steps: Vec<Vec<TraceStep>>,
    journals: Vec<Vec<Vec<u8>>>,
    /// Per node, how many of its journal records an executed barrier
    /// covers: what a power cycle leaves.
    durable: Vec<usize>,
    /// Per node, the `Journal`/`Commit`/`Send` outputs executed so far.
    boundaries: Vec<usize>,
    /// Power-cycle this node right after it has executed this many
    /// outputs (dropping what its step had left to emit).
    crash_at: Option<(usize, usize)>,
    /// The journal records the power cycle left its node.
    survived: Option<Vec<Vec<u8>>>,
    replies: Vec<(NodeId, SerialNo, VoteOutcome)>,
    /// The receipt printed next to the code each voter sent.
    printed: BTreeMap<NodeId, u64>,
    /// The first VOTE_P of every `(sender, serial)`, in order:
    /// `(sender, share, ucert)`.
    vote_ps: Vec<(u32, SignedShare, Arc<UCert>)>,
    /// Every `(signer, serial, code)` whose signature left a node, in an
    /// ENDORSEMENT or inside a VOTE_P's UCERT.
    signed: BTreeSet<(u32, SerialNo, VoteCode)>,
    largest_burst: usize,
    /// `vc.sig_checks` of `preverify` calls and of steps, by outcome.
    preverify_checks: BTreeMap<&'static str, u64>,
    step_checks: BTreeMap<&'static str, u64>,
}

impl<'a> Cluster<'a> {
    fn new(setup: &'a SetupOutput, drive: Drive, behaviors: [VcBehavior; NUM_VC]) -> Cluster<'a> {
        let mut cores: Vec<_> = (0..NUM_VC)
            .map(|node| new_core(setup, node, behaviors[node]))
            .collect();
        for core in &mut cores {
            core.start();
        }
        Cluster {
            setup,
            behaviors,
            drive,
            cores,
            inbox: vec![VecDeque::new(); NUM_VC],
            held: BTreeSet::new(),
            steps: vec![Vec::new(); NUM_VC],
            journals: vec![Vec::new(); NUM_VC],
            durable: vec![0; NUM_VC],
            boundaries: vec![0; NUM_VC],
            crash_at: None,
            survived: None,
            replies: Vec::new(),
            printed: BTreeMap::new(),
            vote_ps: Vec::new(),
            signed: BTreeSet::new(),
            largest_burst: 0,
            preverify_checks: BTreeMap::new(),
            step_checks: BTreeMap::new(),
        }
    }

    fn route(&mut self, env: Envelope) {
        match &env.msg {
            Msg::VoteP { share, ucert, .. } => {
                let sender = env.from.index;
                let known = |(s, _, u): &(u32, SignedShare, Arc<UCert>)| {
                    *s == sender && u.serial == ucert.serial
                };
                if !self.vote_ps.iter().any(known) {
                    self.vote_ps.push((sender, *share, ucert.clone()));
                }
                for (signer, _) in &ucert.sigs {
                    self.signed.insert((*signer, ucert.serial, ucert.vote_code));
                }
            }
            Msg::Endorsement {
                serial, vote_code, ..
            } => {
                self.signed.insert((env.from.index, *serial, *vote_code));
            }
            _ => {}
        }
        if env.to.kind == NodeKind::Vc {
            self.inbox[env.to.index as usize].push_back(env);
            return;
        }
        match env.msg {
            Msg::VoteReply {
                serial, outcome, ..
            } => self.replies.push((env.to, serial, outcome)),
            other => panic!("unexpected {} to {}", other.kind(), env.to),
        }
    }

    /// Client `client` sends `to_vc` the code of `ballot`'s line
    /// `(part, line)`.
    fn vote_line(&mut self, client: u32, to_vc: u32, ballot: usize, part: usize, line: usize) {
        let line = self.setup.ballots[ballot].parts[part].lines[line];
        self.printed.insert(NodeId::client(client), line.receipt);
        self.route(Envelope {
            from: NodeId::client(client),
            to: NodeId::vc(to_vc),
            msg: Msg::Vote {
                request_id: u64::from(client),
                serial: self.setup.ballots[ballot].serial,
                vote_code: line.vote_code,
            },
        });
    }

    fn vote(&mut self, client: u32, to_vc: u32, ballot: usize) {
        self.vote_line(client, to_vc, ballot, ballot % 2, ballot % 2);
    }

    fn step(&mut self, node: usize, input: VcInput) {
        let outputs = self.cores[node].step(input.clone(), NOW_MS);
        self.steps[node].push(TraceStep {
            input: input.encode(),
            now_ms: NOW_MS,
            outputs: outputs.iter().map(VcOutput::encode).collect(),
        });
        for (outcome, n) in self.cores[node].take_sig_checks() {
            *self.step_checks.entry(outcome).or_default() += n;
        }
        self.execute(node, outputs);
    }

    /// Executes a step's outputs in order, as a driver with a journal
    /// would: a record is durable once a barrier after it has run.
    fn execute(&mut self, node: usize, outputs: Vec<VcOutput>) {
        for output in outputs {
            match output {
                VcOutput::Send { to, msg } => self.route(Envelope {
                    from: NodeId::vc(node as u32),
                    to,
                    msg,
                }),
                VcOutput::Journal(record) => self.journals[node].push(record),
                VcOutput::Commit => self.durable[node] = self.journals[node].len(),
                VcOutput::SetTimer(_) => continue,
                VcOutput::Deliver(_) | VcOutput::Recover => {
                    panic!("vc-{node}: unexpected output in a voting-phase run")
                }
            }
            self.boundaries[node] += 1;
            if self.crash_at == Some((node, self.boundaries[node])) {
                self.power_cycle(node);
                return;
            }
        }
    }

    /// A fresh core for `node` holding what its journal's durable prefix
    /// replays to, and what `post_recovery` made of it.
    fn recovered_core(&self, node: usize) -> (VcCore<MemoryStore>, Vec<VcOutput>) {
        let mut core = new_core(self.setup, node, self.behaviors[node]);
        core.start();
        for record in &self.journals[node][..self.durable[node]] {
            core.durable().apply_record(record).expect("own record");
        }
        let outputs = core.post_recovery(NOW_MS);
        (core, outputs)
    }

    /// Cuts `node`'s power: the records no barrier covered are gone, a
    /// fresh core replays the rest. Whatever share the node disclosed
    /// before, it must still hold the UCERT it disclosed it under.
    fn power_cycle(&mut self, node: usize) {
        self.journals[node].truncate(self.durable[node]);
        self.survived = Some(self.journals[node].clone());
        let disclosed: Vec<Arc<UCert>> = self
            .vote_ps
            .iter()
            .filter(|(sender, ..)| *sender as usize == node)
            .map(|(_, _, ucert)| ucert.clone())
            .collect();
        if !disclosed.is_empty() {
            // Ask a second copy of the recovered node for its ANNOUNCE.
            let (mut probe, _) = self.recovered_core(node);
            let announced = probe
                .step(VcInput::ClosePolls, NOW_MS)
                .into_iter()
                .find_map(|output| match output {
                    VcOutput::Send {
                        msg: Msg::Announce { entries },
                        ..
                    } => Some(entries),
                    _ => None,
                })
                .expect("closing the polls announces");
            for ucert in disclosed {
                let held = announced
                    .iter()
                    .find(|entry| entry.serial == ucert.serial)
                    .and_then(|entry| entry.vote.as_ref());
                assert!(
                    held.is_some_and(|(code, held)| *code == ucert.vote_code
                        && held.key_digest() == ucert.key_digest()),
                    "vc-{node} disclosed a share for {:?} and lost the UCERT",
                    ucert.serial
                );
            }
        }
        let (core, outputs) = self.recovered_core(node);
        self.cores[node] = core;
        self.execute(node, outputs);
    }

    /// One turn for every node that is not held: it drains the inbox it
    /// finds. Returns whether anyone had work.
    fn pump_round(&mut self) -> bool {
        let mut busy = false;
        for node in 0..NUM_VC {
            if self.held.contains(&node) || self.inbox[node].is_empty() {
                continue;
            }
            busy = true;
            let burst: Vec<VcInput> = self.inbox[node].drain(..).map(VcInput::Deliver).collect();
            self.largest_burst = self.largest_burst.max(burst.len());
            if self.drive == Drive::Bursts && burst.len() > 1 {
                self.cores[node].preverify(&burst);
                for (outcome, n) in self.cores[node].take_sig_checks() {
                    *self.preverify_checks.entry(outcome).or_default() += n;
                }
            }
            for input in burst {
                self.step(node, input);
            }
        }
        busy
    }

    fn pump(&mut self) {
        while self.pump_round() {}
    }

    /// Moves everything `from_vc` sent to the front of `node`'s inbox
    /// (both groups keep their order).
    fn deliver_first(&mut self, node: usize, from_vc: u32) {
        let (first, rest): (Vec<_>, Vec<_>) = self.inbox[node]
            .drain(..)
            .partition(|env| env.from == NodeId::vc(from_vc));
        self.inbox[node].extend(first.into_iter().chain(rest));
    }

    fn checks(&self, outcome: &str) -> u64 {
        let of = |map: &BTreeMap<&'static str, u64>| map.get(outcome).copied().unwrap_or(0);
        of(&self.preverify_checks) + of(&self.step_checks)
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            steps: self.steps.clone(),
            journals: self.journals.clone(),
            replies: self.replies.clone(),
        }
    }
}

/// Runs `script` under both drives and checks they left the same bytes
/// behind. Returns the burst-driven cluster for case-specific checks.
fn same_under_both_drives<'a>(
    setup: &'a SetupOutput,
    behaviors: [VcBehavior; NUM_VC],
    script: impl Fn(&mut Cluster),
) -> (Cluster<'a>, Outcome) {
    let mut stepwise = Cluster::new(setup, Drive::Stepwise, behaviors);
    script(&mut stepwise);
    let mut bursts = Cluster::new(setup, Drive::Bursts, behaviors);
    script(&mut bursts);
    let outcome = bursts.outcome();
    assert_eq!(
        stepwise.outcome(),
        outcome,
        "preverify changed what the cores did"
    );
    assert_eq!(
        stepwise.checks("skipped"),
        bursts.checks("skipped"),
        "steps skip on structure alone, whatever the memo holds"
    );
    assert_eq!(stepwise.checks("deduped"), 0);
    (bursts, outcome)
}

fn printed_receipt(setup: &SetupOutput, ballot: usize) -> VoteOutcome {
    VoteOutcome::Receipt(setup.ballots[ballot].parts[ballot % 2].lines[ballot % 2].receipt)
}

/// `ballots` ballots, three in flight at a time, responders spread over
/// the collectors; then one voter asks again.
fn honest_script(ballots: usize) -> impl Fn(&mut Cluster) {
    move |cluster| {
        for wave in (0..ballots).collect::<Vec<_>>().chunks(3) {
            for &ballot in wave {
                cluster.vote(100 + ballot as u32, (ballot % NUM_VC) as u32, ballot);
            }
            cluster.pump();
        }
        cluster.vote(200, 3, 0);
        cluster.pump();
    }
}

#[test]
fn honest_run_is_identical_with_and_without_preverify() {
    let setup = setup();
    let (bursts, outcome) = same_under_both_drives(&setup, HONEST, honest_script(6));
    let mut expected: Vec<_> = (0..6)
        .map(|b| {
            (
                NodeId::client(100 + b as u32),
                setup.ballots[b].serial,
                printed_receipt(&setup, b),
            )
        })
        .collect();
    expected.push((
        NodeId::client(200),
        setup.ballots[0].serial,
        printed_receipt(&setup, 0),
    ));
    let mut replies = outcome.replies.clone();
    replies.sort_by_key(|(client, ..)| client.index);
    assert_eq!(replies, expected);
    // The bursts were bursts, equal UCERT signatures in one burst cost
    // one verification, and a cast stays within the 20 group-math checks
    // `examples/profile.rs --gate` pins for four collectors.
    assert!(bursts.largest_burst >= 3, "{}", bursts.largest_burst);
    assert!(bursts.checks("deduped") > 0);
    assert!(
        bursts.checks("fresh") <= 20 * 6,
        "{}",
        bursts.checks("fresh")
    );
    // Nothing is addressed to oneself: 19 steps a cast, and one for the
    // voter who asked again.
    let steps: usize = outcome.steps.iter().map(Vec::len).sum();
    assert_eq!(steps, 19 * 6 + 1);
}

/// VC 1 corrupts the share it discloses, and its VOTE_P heads a burst of
/// three at the responder, whose need bound (two shares beside its own)
/// therefore takes the bad one and leaves a good one to the step.
#[test]
fn corrupt_share_first_in_a_burst_does_not_cost_the_receipt() {
    let setup = setup();
    let mut behaviors = HONEST;
    behaviors[1] = VcBehavior::CorruptShares;
    let script = |cluster: &mut Cluster| {
        cluster.vote(100, 0, 0);
        // Run the responder up to its own VOTE_P, then hold its inbox
        // while the others disclose.
        while cluster.vote_ps.is_empty() {
            assert!(cluster.pump_round(), "the responder never certified");
        }
        cluster.held.insert(0);
        cluster.pump();
        cluster.deliver_first(0, 1);
        let burst: Vec<_> = cluster.inbox[0]
            .iter()
            .filter(|env| matches!(env.msg, Msg::VoteP { .. }))
            .map(|env| env.from.index)
            .collect();
        assert_eq!(burst, [1, 2, 3], "the burst this case is about");
        cluster.held.clear();
        cluster.pump();
    };
    let (bursts, outcome) = same_under_both_drives(&setup, behaviors, script);
    assert_eq!(
        outcome.replies,
        [(
            NodeId::client(100),
            setup.ballots[0].serial,
            printed_receipt(&setup, 0)
        )]
    );
    // The responder's steps verified what `preverify` had not: the good
    // share it skipped (and the bad one, again).
    assert!(bursts.step_checks.get("fresh").copied().unwrap_or(0) >= 2);
}

/// Four VOTE_Ps in one burst carry the same forged UCERT (genuine
/// signatures, but over another ballot's endorsement): nothing is
/// accepted, nothing is remembered, and the ballot can still be cast.
#[test]
fn forged_ucert_repeated_in_a_burst_is_rejected_every_time() {
    let setup = setup();
    let script = |cluster: &mut Cluster| {
        cluster.vote(100, 0, 0);
        cluster.pump();
        let genuine = cluster.vote_ps.clone();
        assert_eq!(genuine.len(), NUM_VC);
        let target = &setup.ballots[1];
        let vote_code = target.parts[1].lines[1].vote_code;
        let forged = Arc::new(UCert {
            serial: target.serial,
            vote_code,
            sigs: genuine[0].2.sigs.clone(),
        });
        let steps_before = cluster.steps[2].len();
        for (_, share, _) in &genuine {
            cluster.inbox[2].push_back(Envelope {
                from: NodeId::vc(1),
                to: NodeId::vc(2),
                msg: Msg::VoteP {
                    serial: target.serial,
                    vote_code,
                    share: *share,
                    ucert: forged.clone(),
                },
            });
        }
        cluster.pump();
        let forged_steps = &cluster.steps[2][steps_before..];
        assert_eq!(forged_steps.len(), NUM_VC);
        assert!(forged_steps.iter().all(|step| step.outputs.is_empty()));
        cluster.vote(101, 3, 1);
        cluster.pump();
    };
    let (bursts, outcome) = same_under_both_drives(&setup, HONEST, script);
    assert_eq!(
        outcome.replies.last(),
        Some(&(
            NodeId::client(101),
            setup.ballots[1].serial,
            printed_receipt(&setup, 1)
        ))
    );
    // Three forged signatures, four copies each: nine shared a verdict.
    assert!(
        bursts.checks("deduped") >= 9,
        "{}",
        bursts.checks("deduped")
    );
}

fn durable_snapshot(core: &mut VcCore<MemoryStore>) -> Vec<u8> {
    let mut w = Writer::new();
    core.durable().encode_snapshot(&mut w);
    w.into_bytes()
}

/// The journal a node wrote while dropping redundant VOTE_Ps early
/// rebuilds exactly the state the node holds, and the rebuilt node
/// answers as the live one does.
#[test]
fn replayed_journal_matches_the_live_state() {
    let setup = setup();
    let mut live = Cluster::new(&setup, Drive::Bursts, HONEST);
    honest_script(6)(&mut live);
    assert!(live.checks("skipped") > 0, "no VOTE_P was redundant");
    for node in 0..NUM_VC {
        let mut recovered = new_core(&setup, node, VcBehavior::Honest);
        for record in &live.journals[node] {
            recovered
                .durable()
                .apply_record(record)
                .expect("own record");
        }
        recovered.post_recovery(NOW_MS);
        assert_eq!(
            durable_snapshot(&mut recovered),
            durable_snapshot(&mut live.cores[node]),
            "vc-{node} recovered a different state"
        );
        // A late VOTE_P changes nothing; the voter's retry gets the
        // receipt the ballot printed.
        let (sender, share, ucert) = live
            .vote_ps
            .iter()
            .find(|(_, _, ucert)| ucert.serial == setup.ballots[0].serial)
            .expect("ballot 0 was cast")
            .clone();
        let late = recovered.step(
            VcInput::Deliver(Envelope {
                from: NodeId::vc(sender),
                to: NodeId::vc(node as u32),
                msg: Msg::VoteP {
                    serial: ucert.serial,
                    vote_code: ucert.vote_code,
                    share,
                    ucert,
                },
            }),
            NOW_MS,
        );
        assert!(late.is_empty(), "vc-{node}: {late:?}");
        let line = setup.ballots[0].parts[0].lines[0];
        let retry = recovered.step(
            VcInput::Deliver(Envelope {
                from: NodeId::client(300),
                to: NodeId::vc(node as u32),
                msg: Msg::Vote {
                    request_id: 300,
                    serial: setup.ballots[0].serial,
                    vote_code: line.vote_code,
                },
            }),
            NOW_MS,
        );
        assert!(
            matches!(
                retry.as_slice(),
                [VcOutput::Send { msg: Msg::VoteReply { outcome, .. }, .. }]
                    if *outcome == VoteOutcome::Receipt(line.receipt)
            ),
            "vc-{node}: {retry:?}"
        );
    }
}

impl Cluster<'_> {
    /// What the paper's argument promises whatever crashed: a signature
    /// that left a node binds it to one code a serial, a serial has at
    /// most one UCERT, and a receipt a voter was sent is the one printed
    /// next to the code that voter cast.
    fn assert_safe(&self, case: &str) {
        let mut endorsed: BTreeMap<(u32, SerialNo), VoteCode> = BTreeMap::new();
        for &(signer, serial, code) in &self.signed {
            let first = *endorsed.entry((signer, serial)).or_insert(code);
            assert_eq!(
                first, code,
                "{case}: vc-{signer} signed two codes of {serial:?}"
            );
        }
        let mut certified: BTreeMap<SerialNo, VoteCode> = BTreeMap::new();
        for (_, _, ucert) in &self.vote_ps {
            let first = *certified.entry(ucert.serial).or_insert(ucert.vote_code);
            assert_eq!(
                first, ucert.vote_code,
                "{case}: two UCERTs for {:?}",
                ucert.serial
            );
        }
        for (client, serial, outcome) in &self.replies {
            if let VoteOutcome::Receipt(receipt) = outcome {
                assert_eq!(
                    Some(receipt),
                    self.printed.get(client),
                    "{case}: {client} got a receipt {serial:?} does not print"
                );
            }
        }
    }
}

/// Runs `script` once untouched, then once for every `Journal`, `Commit`
/// and `Send` any node executed in that run, power-cycling the node right
/// after that output: the records no executed barrier covers are dropped,
/// a fresh core replays the rest, and the run goes on. Every run must be
/// safe; a recovered node restarts from the replay of a prefix of what the
/// untouched node journaled, and (checked inside `power_cycle`) still
/// holds the UCERT of every share it disclosed. Returns how many crashes
/// it tried.
fn amnesia_at_every_boundary(setup: &SetupOutput, script: impl Fn(&mut Cluster)) -> usize {
    let mut untouched = Cluster::new(setup, Drive::Bursts, HONEST);
    script(&mut untouched);
    untouched.assert_safe("no crash");
    let mut crashes = 0;
    for node in 0..NUM_VC {
        for boundary in 1..=untouched.boundaries[node] {
            let case = format!("vc-{node} power-cycled after its output {boundary}");
            let mut cluster = Cluster::new(setup, Drive::Bursts, HONEST);
            cluster.crash_at = Some((node, boundary));
            script(&mut cluster);
            cluster.assert_safe(&case);
            let survived = cluster.survived.expect("the run got there");
            assert!(
                untouched.journals[node].starts_with(&survived),
                "{case}: it restarted from something the untouched node never wrote"
            );
            crashes += 1;
        }
    }
    crashes
}

#[test]
fn amnesia_at_every_boundary_of_an_honest_run_is_safe() {
    let setup = setup();
    let crashes = amnesia_at_every_boundary(&setup, honest_script(2));
    // Two casts of 19 steps: 7 barriers, 20 envelopes less the voter's
    // own, and the records between them.
    assert!(crashes > 100, "{crashes}");
}

/// Two voters hold the same ballot and cast different lines of it at
/// different collectors at once. `split` makes VC 2 hear of the second
/// code first, so the endorsements divide two against two and whichever
/// collector forgets its endorsement decides the race.
fn racing_script(split: bool) -> impl Fn(&mut Cluster) {
    move |cluster| {
        cluster.vote_line(100, 0, 0, 0, 0);
        cluster.vote_line(101, 1, 0, 1, 1);
        if split {
            cluster.held.insert(2);
            assert!(cluster.pump_round());
            cluster.deliver_first(2, 1);
            cluster.held.clear();
        }
        cluster.pump();
        // Both ask again, each at the other's collector.
        cluster.vote_line(100, 1, 0, 0, 0);
        cluster.vote_line(101, 0, 0, 1, 1);
        cluster.pump();
    }
}

#[test]
fn amnesia_at_every_boundary_of_a_two_code_race_is_safe() {
    let setup = setup();
    // Untouched, the first code wins the plain race and the second voter
    // is refused; the split race certifies nothing.
    let mut plain = Cluster::new(&setup, Drive::Bursts, HONEST);
    racing_script(false)(&mut plain);
    assert_eq!(plain.vote_ps.len(), NUM_VC);
    assert!(plain
        .replies
        .contains(&(NodeId::client(100), setup.ballots[0].serial, {
            VoteOutcome::Receipt(setup.ballots[0].parts[0].lines[0].receipt)
        })));
    let mut split = Cluster::new(&setup, Drive::Bursts, HONEST);
    racing_script(true)(&mut split);
    assert!(split.vote_ps.is_empty());
    // Crashed, some runs certify the other code or none — never both.
    assert!(amnesia_at_every_boundary(&setup, racing_script(false)) > 50);
    assert!(amnesia_at_every_boundary(&setup, racing_script(true)) > 10);
}
