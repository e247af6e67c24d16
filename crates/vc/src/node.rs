//! The Vote Collector node *driver*: a thin thread loop that pumps a
//! [`VcCore`] against a transport endpoint.
//!
//! All protocol logic lives in the sans-I/O [`crate::core`] module; this
//! driver owns exactly the I/O the core refuses to: the transport
//! endpoint, the node clock, the durable journal, the stop/close-polls
//! flags, and the finalized-vote-set delivery channel. One iteration:
//!
//! 1. translate the environment into a burst of [`VcInput`]s — every
//!    envelope the endpoint has buffered, a poll-timer expiry (`Tick`), a
//!    latched close-polls flag, or an authenticated
//!    `Msg::ClosePolls`/`Msg::Shutdown` control envelope;
//! 2. `core.step(input, clock.now_ms())` for each input, in order;
//! 3. execute the returned [`VcOutput`]s with **one commit barrier a
//!    burst**: records are appended as they come, a send no barrier of its
//!    own step precedes goes out at once, one that follows a barrier is
//!    held; after the last step one `journal.commit()` stands for every
//!    barrier of the burst and the held outputs leave in step order.
//!
//! Which outputs sit behind a barrier is the core's decision; the driver
//! only lets the barriers of one burst share an fsync. Nothing held
//! reaches the endpoint before the commit that covers its step, and a
//! barrier-free send queues behind a held one to the same node, so each
//! destination sees the core's order. Under a virtual clock a burst is
//! one envelope and this is the sequential loop.
//!
//! The same core runs unchanged over the in-process `SimNet` and over
//! real sockets with one replica per OS process (`ddemos_harness::tcp`).

use crate::core::{StepTrace, VcCore, VcInput, VcOutput};
use crate::store::BallotStore;
use crossbeam_channel::{RecvTimeoutError, Sender};
use ddemos_net::DynEndpoint;
use ddemos_obs::Recorder;
use ddemos_protocol::clock::NodeClock;
use ddemos_protocol::initdata::VcInit;
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::posts::FinalizedVoteSet;
use ddemos_protocol::{NodeId, NodeKind};
use ddemos_storage::DynJournal;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the driver delivers the core's finalized vote set.
pub enum DeliverTarget {
    /// The in-process harness channel.
    Channel(Sender<FinalizedVoteSet>),
    /// Send a [`Msg::Finalized`] envelope to each listed peer (the
    /// multi-process coordinator).
    Peers(Vec<NodeId>),
}

/// Runtime configuration of a node.
#[derive(Clone, Debug)]
pub struct VcNodeConfig {
    /// Behaviour profile (honest by default).
    pub behavior: crate::behavior::VcBehavior,
    /// Event-loop poll granularity (clock checks between messages).
    pub poll: Duration,
    /// Optional step-trace recorder (determinism tests).
    pub trace: Option<StepTrace>,
    /// Optional state-triggered Byzantine profile, layered over
    /// `behavior` (see [`crate::behavior::TriggeredAdversary`]).
    pub adversary: Option<crate::behavior::TriggeredAdversary>,
    /// Metrics recorder (disabled by default). The driver feeds it
    /// per-message step latency, outputs-per-step, signature checks by
    /// outcome, and the inbound queue depth at dequeue; its phase label follows the node's own event
    /// order (`vote` → `consensus` on `ClosePolls` → `push` on
    /// finalization), which keeps attribution deterministic.
    pub recorder: Recorder,
}

impl Default for VcNodeConfig {
    fn default() -> Self {
        VcNodeConfig {
            behavior: crate::behavior::VcBehavior::Honest,
            poll: Duration::from_millis(1),
            trace: None,
            adversary: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// Handle to a spawned VC node.
pub struct VcHandle {
    /// The node's id on the network.
    pub id: NodeId,
    stop: Arc<AtomicBool>,
    force_end: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl VcHandle {
    /// Requests the node to stop without joining (callers that must first
    /// wake the node — e.g. by closing a virtual clock — set every flag,
    /// release the wakes, then join).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Requests the node to stop and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Closes the polls immediately (the node behaves as if its clock
    /// passed `Tend`). Benchmarks use this instead of predicting the
    /// voting-window length.
    pub fn close_polls(&self) {
        self.force_end.store(true, Ordering::SeqCst);
    }

    /// Waits for the node to exit on its own — a standalone replica
    /// parks here until its driver receives an authenticated
    /// `Msg::Shutdown` (or its transport disconnects).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for VcHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The driver state: a core plus everything I/O.
struct VcDriver<S> {
    core: VcCore<S>,
    endpoint: DynEndpoint,
    clock: NodeClock,
    journal: Option<DynJournal>,
    deliver: DeliverTarget,
    trace: Option<StepTrace>,
    recorder: Recorder,
    stop: Arc<AtomicBool>,
    force_end: Arc<AtomicBool>,
    close_forwarded: bool,
    timeout: Duration,
    /// A step of the current burst emitted a barrier that has yet to run.
    barrier: bool,
    /// The burst's sends waiting for that barrier, in step order.
    held: Vec<(NodeId, Msg)>,
}

/// Upper bound on envelopes drained per readiness wake: keeps the
/// stop/close-polls flags responsive under a flooding peer.
const MAX_BURST: usize = 256;

/// Translates one envelope into a core input. Control envelopes are a
/// driver concern: authenticate (only client/EA identities may steer a
/// replica) and translate into typed inputs.
fn control_input(env: Envelope) -> VcInput {
    let control = matches!(env.from.kind, NodeKind::Client | NodeKind::Ea);
    match env.msg {
        Msg::ClosePolls if control => VcInput::ClosePolls,
        Msg::Shutdown if control => VcInput::Shutdown,
        _ => VcInput::Deliver(env),
    }
}

/// The metrics label of one driver input.
fn input_label(input: &VcInput) -> &'static str {
    match input {
        VcInput::Deliver(env) => env.msg.kind(),
        VcInput::Tick => "Tick",
        VcInput::ClosePolls => "ClosePolls",
        VcInput::Shutdown => "Shutdown",
    }
}

impl<S: BallotStore> VcDriver<S> {
    fn run(&mut self) {
        // Under a virtual clock this pins the node as an actor: virtual
        // time cannot advance while this thread is processing a message,
        // which is what makes event order a pure function of the seeds.
        let _actor = self.endpoint.actor_guard();
        self.recorder.set_phase("vote");
        // A journal that already holds state (the node restarted) is
        // replayed before any message is served. Runs under the actor
        // registration so charged disk latencies advance the clock.
        self.recover();
        let outs = self.core.start();
        self.execute(outs);
        self.release();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.shutdown();
                return;
            }
            if !self.close_forwarded && self.force_end.load(Ordering::SeqCst) {
                self.close_forwarded = true;
                self.step(VcInput::ClosePolls, true);
            }
            // Wait for the first envelope in the transport's time base,
            // then drain what is buffered behind it without blocking: one
            // wake, one burst (one envelope under a virtual clock, see
            // the module docs).
            let inputs = match self.endpoint.recv_timeout(self.timeout) {
                Ok(first) => {
                    // Envelopes waiting when the node wakes: what this
                    // burst will drain — the one in hand plus those
                    // behind it — so a saturated collector reads deep and
                    // an idle one reads 1. Unstable (`~`): it races with
                    // concurrent senders, so it never joins the
                    // determinism fingerprint.
                    self.recorder.observe(
                        "~vc.queue_depth",
                        "",
                        1 + self.endpoint.read_pending() as u64,
                    );
                    let mut inputs = vec![control_input(first)];
                    while inputs.len() < MAX_BURST
                        && !matches!(inputs.last(), Some(VcInput::Shutdown))
                    {
                        let Some(env) = self.endpoint.try_recv() else {
                            break;
                        };
                        inputs.push(control_input(env));
                    }
                    inputs
                }
                Err(RecvTimeoutError::Timeout) => vec![VcInput::Tick],
                Err(RecvTimeoutError::Disconnected) => {
                    self.shutdown();
                    return;
                }
            };
            // Warm the verified-signature memo for the whole burst in one
            // MSM before stepping (a no-op for bursts without signatures).
            if inputs.len() > 1 {
                self.core.preverify(&inputs);
            }
            let last = inputs.len() - 1;
            for (i, input) in inputs.into_iter().enumerate() {
                if matches!(input, VcInput::Shutdown) {
                    self.shutdown();
                    return;
                }
                self.step(input, i == last);
            }
        }
    }

    /// Final step: tells the core, releases what the burst still holds,
    /// and commits the records still riding (an orderly exit keeps them).
    fn shutdown(&mut self) {
        self.barrier = true;
        self.step(VcInput::Shutdown, true);
    }

    /// Counts a journal failure the driver absorbed, by kind: the replica
    /// keeps serving from what it holds, and this is how anyone learns.
    fn journal_fault(&self, kind: &'static str) {
        self.recorder.add("vc.journal_faults", kind, 1);
    }

    /// One core step: stamp the time, record the trace, execute outputs;
    /// the burst's last step also runs the burst's barrier.
    ///
    /// The whole handle — core step, output execution and journal sync —
    /// is charged to `vc.step_ns` under the input's message kind (the sync
    /// to the last step of its burst, which waited for it). Only `Deliver`
    /// inputs record under the stable names: delivered envelopes are
    /// virtual-time events with a seed-determined order, while
    /// `Tick`/`ClosePolls`/`Shutdown` are injected by the driver loop,
    /// whose count and interleaving depend on wall-clock scheduling even
    /// under virtual time — those go to `~`-prefixed unstable names,
    /// excluded from the fingerprint.
    fn step(&mut self, input: VcInput, end_of_burst: bool) {
        let label = input_label(&input);
        // Deliveries to a finalized node are also unstable: a done node
        // is only answering stragglers, and how many late echoes it
        // drains before the stop flag lands depends on wall scheduling.
        // Its own outcome-bearing steps (everything up to and including
        // the finalizing delivery) stay under the stable names.
        let stable = matches!(input, VcInput::Deliver(_)) && !self.core.is_done();
        let (outputs_name, step_name, sigs_name) = if stable {
            ("vc.step_outputs", "vc.step_ns", "vc.sig_checks")
        } else {
            ("~vc.step_outputs", "~vc.step_ns", "~vc.sig_checks")
        };
        let start = self.recorder.now_ns();
        let now_ms = self.clock.now_ms();
        let outs = match &self.trace {
            Some(trace) => {
                let outs = self.core.step(input.clone(), now_ms);
                trace.record(&input, now_ms, &outs);
                outs
            }
            None => self.core.step(input, now_ms),
        };
        self.recorder.add(outputs_name, label, outs.len() as u64);
        // Signature work of this step (and of the burst's `preverify`, on
        // the burst's first step), by outcome.
        for (outcome, n) in self.core.take_sig_checks() {
            if n > 0 {
                self.recorder.add(sigs_name, outcome, n);
            }
        }
        for what in self.core.take_corrupt_slots() {
            self.recorder.add("vc.corrupt_slots", what, 1);
        }
        self.execute(outs);
        if end_of_burst {
            self.release();
        }
        self.recorder.observe_since(step_name, label, start);
    }

    /// Replays the journal into the core (start-up and amnesia recovery).
    fn recover(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if journal.recover(&mut self.core.durable()).is_err() {
            // The WAL truncated itself at the offending record, so the
            // applied prefix and the log agree; continue from the prefix.
            self.journal_fault("replay");
        }
        let now_ms = self.clock.now_ms();
        let outs = self.core.post_recovery(now_ms);
        self.execute(outs);
    }

    /// Reads one step's outputs, in order: records are appended as they
    /// come, a send goes out at once unless a barrier of this step precedes
    /// it, in which case it waits for [`VcDriver::release`].
    fn execute(&mut self, outputs: Vec<VcOutput>) {
        let mut behind_barrier = false;
        for output in outputs {
            match output {
                VcOutput::SetTimer(d) => self.timeout = d,
                VcOutput::Journal(bytes) => {
                    let Some(journal) = self.journal.as_mut() else {
                        continue;
                    };
                    match journal.append(&bytes) {
                        Ok(()) => {}
                        Err(e) if e.is_disk_full() => {
                            // Device full: the record was NOT written.
                            // Degrade to read-only and drop the rest of
                            // this step, which depends on the record (what
                            // earlier steps are owed still goes out).
                            self.journal_fault("disk_full");
                            self.core.set_degraded();
                            return;
                        }
                        // Any other failure: continue volatile.
                        Err(_) => self.journal_fault("append"),
                    }
                }
                VcOutput::Commit => {
                    self.barrier = true;
                    behind_barrier = true;
                }
                VcOutput::Recover => {
                    // The earlier steps of the burst ran before the power
                    // cut: their barrier and what it holds come first.
                    self.release();
                    if let Some(journal) = self.journal.as_mut() {
                        if journal.crash(0).is_err() {
                            self.journal_fault("crash");
                        }
                    }
                    self.recover();
                }
                VcOutput::Send { to, msg } => {
                    // The node's own ANNOUNCE starts vote-set consensus, its
                    // finalized set the push phase: a core output, so the
                    // flip is a pure function of this node's event order
                    // (`ClosePolls` may or may not beat the clock to Tend).
                    if matches!(msg, Msg::Announce { .. }) {
                        self.recorder.set_phase("consensus");
                    }
                    // Behind this step's barrier, or behind an earlier send
                    // to the same node that is.
                    if behind_barrier || self.held.iter().any(|(held_to, _)| *held_to == to) {
                        self.held.push((to, msg));
                    } else {
                        self.endpoint.send(to, msg);
                    }
                }
                VcOutput::Deliver(finalized) => {
                    // Once an election: its barrier runs now, not with the
                    // rest of the burst.
                    self.release();
                    self.recorder.set_phase("push");
                    match &self.deliver {
                        DeliverTarget::Channel(tx) => {
                            let _ = tx.send(finalized);
                        }
                        DeliverTarget::Peers(peers) => {
                            for peer in peers {
                                self.endpoint.send(*peer, Msg::Finalized(finalized.clone()));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Ends a burst: one `journal.commit()` for all its barriers, the held
    /// sends in step order, then the snapshot cadence (the core's state
    /// matches every appended record here).
    fn release(&mut self) {
        let mut committed = false;
        if std::mem::take(&mut self.barrier) {
            if let Some(journal) = self.journal.as_mut() {
                match journal.commit() {
                    Ok(()) => committed = true,
                    Err(_) => self.journal_fault("commit"),
                }
            }
        }
        for (to, msg) in std::mem::take(&mut self.held) {
            self.endpoint.send(to, msg);
        }
        if committed {
            if let Some(journal) = self.journal.as_mut() {
                if journal.maybe_compact(&self.core.durable()).is_err() {
                    self.journal_fault("compaction");
                }
            }
        }
    }
}

/// Spawns a vote collector: a thread driving a [`VcCore`] over `store`
/// and `endpoint`. The finalized vote set goes to `deliver` — the
/// harness's channel in process, or [`Msg::Finalized`] envelopes to the
/// coordinator in a multi-process deployment.
///
/// With a `journal`, ballot-slot transitions are logged (committed
/// before every externally visible action that depends on them) and a
/// [`Msg::Amnesia`] power-cycle signal makes the node drop volatile
/// state and rebuild from snapshot + WAL replay. The journal should be
/// freshly recovered (or empty); the node replays it on start.
#[allow(clippy::too_many_arguments)]
pub fn spawn<S: BallotStore + 'static>(
    init: VcInit,
    store: S,
    endpoint: DynEndpoint,
    clock: NodeClock,
    beacon: u64,
    config: VcNodeConfig,
    deliver: DeliverTarget,
    journal: Option<DynJournal>,
) -> VcHandle {
    let id = endpoint.id();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let force_end = Arc::new(AtomicBool::new(false));
    let force_end2 = force_end.clone();
    let node_index = init.node_index;
    let poll = config.poll;
    let thread = std::thread::Builder::new()
        .name(format!("vc-{node_index}"))
        .spawn(move || {
            let mut core = VcCore::new(
                init,
                store,
                config.behavior,
                poll,
                beacon,
                journal.is_some(),
            );
            if let Some(adv) = config.adversary {
                core.set_adversary(adv);
            }
            let mut driver = VcDriver {
                core,
                endpoint,
                clock,
                journal,
                deliver,
                trace: config.trace,
                recorder: config.recorder,
                stop: stop2,
                force_end: force_end2,
                close_forwarded: false,
                timeout: poll,
                barrier: false,
                held: Vec::new(),
            };
            driver.run();
        })
        .expect("spawn vc node");
    VcHandle {
        id,
        stop,
        force_end,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::VcBehavior;
    use crate::durable::VcRecord;
    use crate::store::MemoryStore;
    use ddemos_crypto::field::Scalar;
    use ddemos_crypto::schnorr::SigningKey;
    use ddemos_crypto::shamir::Share;
    use ddemos_crypto::votecode::{VoteCode, VoteCodeHash};
    use ddemos_crypto::vss::DealerVss;
    use ddemos_net::TransportEndpoint;
    use ddemos_protocol::clock::GlobalClock;
    use ddemos_protocol::initdata::{VcBallot, VcRow};
    use ddemos_protocol::messages::VoteOutcome;
    use ddemos_protocol::{ElectionParams, SerialNo};
    use ddemos_storage::{DiskProfile, Journal, JournalConfig, SimDisk};
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, VecDeque};

    const ME: u32 = 1;
    const BALLOTS: u64 = 4;

    /// One send as the endpoint saw it: how many times the disk had been
    /// synced by then, and the envelope.
    type Sent = (u64, NodeId, Msg);

    /// An endpoint whose whole inbox is queued before the driver starts —
    /// one readiness wake, one burst — and which closes once drained.
    struct Scripted {
        inbox: Mutex<VecDeque<Envelope>>,
        sent: Arc<Mutex<Vec<Sent>>>,
        disk: Arc<SimDisk>,
        /// The disk fills up the moment something is sent to this node.
        fills_disk: Option<NodeId>,
    }

    impl TransportEndpoint for Scripted {
        fn id(&self) -> NodeId {
            NodeId::vc(ME)
        }
        fn send(&self, to: NodeId, msg: Msg) {
            if self.fills_disk == Some(to) {
                self.disk.set_full(true);
            }
            self.sent.lock().push((self.disk.syncs(), to, msg));
        }
        fn recv(&self) -> Result<Envelope, crossbeam_channel::RecvError> {
            self.try_recv().ok_or(crossbeam_channel::RecvError)
        }
        fn recv_timeout(&self, _timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
            self.try_recv().ok_or(RecvTimeoutError::Disconnected)
        }
        fn try_recv(&self) -> Option<Envelope> {
            self.inbox.lock().pop_front()
        }
        fn now_ns(&self) -> u64 {
            0
        }
    }

    fn code(serial: u64) -> VoteCode {
        VoteCode([serial as u8 + 1; 20])
    }

    /// Collector `ME` of a four-collector election, dealt by hand: one
    /// row a part, `code(serial)` on part A.
    fn init() -> VcInit {
        let mut rng = StdRng::seed_from_u64(23);
        let params =
            ElectionParams::new("vc-driver", BALLOTS, 2, 4, 1, 1, 1, 0, 3_600_000).expect("params");
        let ea = SigningKey::generate(&mut rng);
        let keys: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
        let share = DealerVss::sign(
            &ea,
            b"vc-driver",
            &[Share {
                index: ME + 1,
                value: Scalar::ONE,
            }],
        )[0];
        let row = |code: VoteCode| VcRow {
            code_hash: VoteCodeHash::commit(&code, 7),
            receipt_share: share,
        };
        let ballots: BTreeMap<SerialNo, VcBallot> = (0..BALLOTS)
            .map(|serial| {
                let parts = [vec![row(code(serial))], vec![row(VoteCode([0xEE; 20]))]];
                (SerialNo(serial), VcBallot { parts })
            })
            .collect();
        VcInit {
            params,
            node_index: ME,
            signing_key: keys[ME as usize],
            vc_keys: keys.iter().map(SigningKey::verifying_key).collect(),
            ea_key: ea.verifying_key(),
            msk_share: share,
            ballots,
        }
    }

    fn endorse(serial: u64) -> Envelope {
        Envelope {
            from: NodeId::vc(0),
            to: NodeId::vc(ME),
            msg: Msg::Endorse {
                serial: SerialNo(serial),
                vote_code: code(serial),
            },
        }
    }

    fn vote(client: u32, serial: u64) -> Envelope {
        Envelope {
            from: NodeId::client(client),
            to: NodeId::vc(ME),
            msg: Msg::Vote {
                request_id: 1,
                serial: SerialNo(serial),
                vote_code: code(serial),
            },
        }
    }

    struct Run {
        sent: Vec<Sent>,
        syncs: u64,
        recorder: Recorder,
    }

    /// Runs the driver over `burst` on a `SimDisk` journal that already
    /// holds `journaled` until the endpoint closes.
    fn run_after(journaled: &[VcRecord], burst: Vec<Envelope>, fills_disk: Option<NodeId>) -> Run {
        let disk = Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant()));
        let mut prior = Journal::new(disk.clone(), JournalConfig::default());
        for record in journaled {
            prior.append(&record.encode()).expect("append");
        }
        prior.commit().expect("commit");
        let syncs_before = disk.syncs();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let endpoint = Scripted {
            inbox: Mutex::new(burst.into()),
            sent: sent.clone(),
            disk: disk.clone(),
            fills_disk,
        };
        let mut init = init();
        let store = MemoryStore::new(std::mem::take(&mut init.ballots), BALLOTS);
        let poll = Duration::from_millis(1);
        let recorder = Recorder::wall();
        let (tx, _rx) = crossbeam_channel::unbounded();
        let mut driver = VcDriver {
            core: VcCore::new(init, store, VcBehavior::Honest, poll, 0, true),
            endpoint: Box::new(endpoint),
            clock: GlobalClock::new().node_clock(0),
            journal: Some(Journal::new(disk.clone(), JournalConfig::default())),
            deliver: DeliverTarget::Channel(tx),
            trace: None,
            recorder: recorder.clone(),
            stop: Arc::new(AtomicBool::new(false)),
            force_end: Arc::new(AtomicBool::new(false)),
            close_forwarded: false,
            timeout: poll,
            barrier: false,
            held: Vec::new(),
        };
        driver.run();
        let sent = std::mem::take(&mut *sent.lock());
        Run {
            sent,
            syncs: disk.syncs() - syncs_before,
            recorder,
        }
    }

    /// [`run_after`] on an empty journal.
    fn run(burst: Vec<Envelope>, fills_disk: Option<NodeId>) -> Run {
        run_after(&[], burst, fills_disk)
    }

    /// `(syncs seen, message kind)` of everything sent to `to`, in order.
    fn sent_to(run: &Run, to: NodeId) -> Vec<(u64, &'static str)> {
        run.sent
            .iter()
            .filter(|(_, dest, _)| *dest == to)
            .map(|(syncs, _, msg)| (*syncs, msg.kind()))
            .collect()
    }

    #[test]
    fn a_burst_shares_one_barrier() {
        // Two endorsements (a barrier each), between them a vote this node
        // becomes responder for (no barrier, multicast to the others) and
        // a vote it refuses (no barrier, one reply).
        let run = run(vec![endorse(0), vote(7, 2), vote(9, 99), endorse(1)], None);
        assert_eq!(run.syncs, 1, "one barrier for the whole burst");
        // Barrier-free outputs left before it...
        assert_eq!(sent_to(&run, NodeId::vc(2)), [(0, "Endorse")]);
        assert_eq!(sent_to(&run, NodeId::vc(3)), [(0, "Endorse")]);
        assert_eq!(sent_to(&run, NodeId::client(9)), [(0, "VoteReply")]);
        // ...except to the node a held output is addressed to: what goes to
        // VC 0 goes behind the barrier, in the order the core produced it.
        assert_eq!(
            sent_to(&run, NodeId::vc(0)),
            [(1, "Endorsement"), (1, "Endorse"), (1, "Endorsement")]
        );
        assert_eq!(run.sent.len(), 6);
        let faults = run.recorder.snapshot();
        assert_eq!(faults.counter("vc.journal_faults", None, None), 0);
    }

    #[test]
    fn a_full_disk_mid_burst_drops_that_step_and_keeps_the_earlier_ones() {
        // The disk fills as the refusal to client 9 goes out: the second
        // ENDORSE cannot be journaled, so nothing of it leaves, and the
        // degraded node signs nothing new for the third either.
        let burst = vec![endorse(0), vote(9, 99), endorse(1), endorse(2)];
        let run = run(burst, Some(NodeId::client(9)));
        assert_eq!(sent_to(&run, NodeId::client(9)), [(0, "VoteReply")]);
        assert_eq!(sent_to(&run, NodeId::vc(0)), [(1, "Endorsement")]);
        assert_eq!(run.syncs, 1);
        let faults = run.recorder.snapshot();
        assert_eq!(
            faults.counter("vc.journal_faults", None, Some("disk_full")),
            1
        );
        assert_eq!(faults.counter("vc.journal_faults", None, None), 1);
    }

    #[test]
    fn amnesia_mid_burst_comes_after_the_barrier_of_the_steps_before_it() {
        let amnesia = Envelope {
            from: NodeId::vc(ME),
            to: NodeId::vc(ME),
            msg: Msg::Amnesia,
        };
        // Part B's code of the same ballot: a second code for serial 0.
        let mut other_code = endorse(0);
        if let Msg::Endorse { vote_code, .. } = &mut other_code.msg {
            *vote_code = VoteCode([0xEE; 20]);
        }
        let run = run(vec![endorse(0), amnesia, other_code, endorse(1)], None);
        // The first endorsement was owed before the power cut: its barrier
        // ran and it left. So the recovered node still knows what it
        // signed, refuses the other code, and endorses the next ballot
        // behind the burst's own barrier.
        assert_eq!(
            sent_to(&run, NodeId::vc(0)),
            [(1, "Endorsement"), (2, "Endorsement")]
        );
        assert_eq!(run.sent.len(), 2);
        assert_eq!(run.syncs, 2);
    }

    #[test]
    fn a_corrupt_replayed_slot_refuses_the_ballot_and_is_counted() {
        // A `Pending` record with no `Used` before it: the replayed slot
        // is active but has no code.
        let run = run_after(
            &[VcRecord::Pending {
                serial: SerialNo(0),
            }],
            vec![vote(7, 0)],
            None,
        );
        let replies: Vec<&Msg> = run.sent.iter().map(|(_, _, msg)| msg).collect();
        assert!(
            matches!(
                replies.as_slice(),
                [Msg::VoteReply {
                    outcome: VoteOutcome::Rejected(_),
                    ..
                }]
            ),
            "{replies:?}"
        );
        let faults = run.recorder.snapshot();
        assert_eq!(
            faults.counter("vc.corrupt_slots", None, Some("refused_vote")),
            1
        );
    }
}
