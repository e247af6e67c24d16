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

struct Cluster {
    drive: Drive,
    cores: Vec<VcCore<MemoryStore>>,
    inbox: Vec<VecDeque<Envelope>>,
    /// Nodes whose inbox `pump` leaves alone.
    held: BTreeSet<usize>,
    steps: Vec<Vec<TraceStep>>,
    journals: Vec<Vec<Vec<u8>>>,
    replies: Vec<(NodeId, SerialNo, VoteOutcome)>,
    /// Every VOTE_P sent so far, in order: `(sender, share, ucert)`.
    vote_ps: Vec<(u32, SignedShare, Arc<UCert>)>,
    largest_burst: usize,
    /// `vc.sig_checks` of `preverify` calls and of steps, by outcome.
    preverify_checks: BTreeMap<&'static str, u64>,
    step_checks: BTreeMap<&'static str, u64>,
}

impl Cluster {
    fn new(setup: &SetupOutput, drive: Drive, behaviors: [VcBehavior; NUM_VC]) -> Cluster {
        let mut cores: Vec<_> = (0..NUM_VC)
            .map(|node| new_core(setup, node, behaviors[node]))
            .collect();
        for core in &mut cores {
            core.start();
        }
        Cluster {
            drive,
            cores,
            inbox: vec![VecDeque::new(); NUM_VC],
            held: BTreeSet::new(),
            steps: vec![Vec::new(); NUM_VC],
            journals: vec![Vec::new(); NUM_VC],
            replies: Vec::new(),
            vote_ps: Vec::new(),
            largest_burst: 0,
            preverify_checks: BTreeMap::new(),
            step_checks: BTreeMap::new(),
        }
    }

    fn route(&mut self, env: Envelope) {
        if let Msg::VoteP { share, ucert, .. } = &env.msg {
            if env.to == env.from {
                self.vote_ps.push((env.from.index, *share, ucert.clone()));
            }
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

    fn vote(&mut self, client: u32, to_vc: u32, setup: &SetupOutput, ballot: usize) {
        let line = setup.ballots[ballot].parts[ballot % 2].lines[ballot % 2];
        self.route(Envelope {
            from: NodeId::client(client),
            to: NodeId::vc(to_vc),
            msg: Msg::Vote {
                request_id: u64::from(client),
                serial: setup.ballots[ballot].serial,
                vote_code: line.vote_code,
            },
        });
    }

    fn step(&mut self, node: usize, input: VcInput) -> Vec<VcOutput> {
        let outputs = self.cores[node].step(input.clone(), NOW_MS);
        self.steps[node].push(TraceStep {
            input: input.encode(),
            now_ms: NOW_MS,
            outputs: outputs.iter().map(VcOutput::encode).collect(),
        });
        for (outcome, n) in self.cores[node].take_sig_checks() {
            *self.step_checks.entry(outcome).or_default() += n;
        }
        for output in &outputs {
            match output {
                VcOutput::Send { to, msg } => self.route(Envelope {
                    from: NodeId::vc(node as u32),
                    to: *to,
                    msg: msg.clone(),
                }),
                VcOutput::Journal(record) => self.journals[node].push(record.clone()),
                VcOutput::Commit | VcOutput::SetTimer(_) => {}
                VcOutput::Deliver(_) | VcOutput::Recover => {
                    panic!("vc-{node}: unexpected output in a voting-phase run")
                }
            }
        }
        outputs
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
fn same_under_both_drives(
    setup: &SetupOutput,
    behaviors: [VcBehavior; NUM_VC],
    script: impl Fn(&mut Cluster),
) -> (Cluster, Outcome) {
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

/// Six ballots, three in flight at a time, responders spread over the
/// collectors; then one voter asks again.
fn honest_script(setup: &SetupOutput) -> impl Fn(&mut Cluster) + '_ {
    move |cluster| {
        for wave in [0..3usize, 3..6] {
            for ballot in wave {
                cluster.vote(100 + ballot as u32, (ballot % NUM_VC) as u32, setup, ballot);
            }
            cluster.pump();
        }
        cluster.vote(200, 3, setup, 0);
        cluster.pump();
    }
}

#[test]
fn honest_run_is_identical_with_and_without_preverify() {
    let setup = setup();
    let (bursts, outcome) = same_under_both_drives(&setup, HONEST, honest_script(&setup));
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
    // one verification, and a cast stays within the 24 group-math checks
    // `examples/profile.rs --gate` pins for four collectors.
    assert!(bursts.largest_burst >= 4, "{}", bursts.largest_burst);
    assert!(bursts.checks("deduped") > 0);
    assert!(
        bursts.checks("fresh") <= 24 * 6,
        "{}",
        bursts.checks("fresh")
    );
}

/// VC 1 corrupts the share it discloses, and its VOTE_P heads a burst of
/// four at the responder, whose need bound (three shares) therefore takes
/// the bad one and leaves a good one to the step.
#[test]
fn corrupt_share_first_in_a_burst_does_not_cost_the_receipt() {
    let setup = setup();
    let mut behaviors = HONEST;
    behaviors[1] = VcBehavior::CorruptShares;
    let script = |cluster: &mut Cluster| {
        cluster.vote(100, 0, &setup, 0);
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
        assert_eq!(burst, [1, 0, 2, 3], "the burst this case is about");
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
        cluster.vote(100, 0, &setup, 0);
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
        cluster.vote(101, 3, &setup, 1);
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
    honest_script(&setup)(&mut live);
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
