//! The Vote Collector node *driver*: a thin thread loop that pumps a
//! [`VcCore`] against a transport endpoint.
//!
//! All protocol logic lives in the sans-I/O [`crate::core`] module; this
//! driver owns exactly the I/O the core refuses to: the transport
//! endpoint, the node clock, the durable journal, the stop/close-polls
//! flags, and the finalized-vote-set delivery channel. One iteration:
//!
//! 1. translate the environment into a [`VcInput`] — a received envelope,
//!    a poll-timer expiry (`Tick`), a latched close-polls flag, or an
//!    authenticated `Msg::ClosePolls`/`Msg::Shutdown` control envelope;
//! 2. `core.step(input, clock.now_ms())`;
//! 3. execute the returned [`VcOutput`]s in order (sends, journal
//!    appends, group commits, finalized-set delivery, amnesia recovery).
//!
//! Because the driver is this thin, the same core runs unchanged over
//! the in-process `SimNet` (every existing virtual-time, fault and
//! durability behavior) and over `TcpTransport` with one replica per OS
//! process (`ddemos_harness::tcp`).

use crate::core::{StepTrace, VcCore, VcInput, VcOutput};
use crate::store::BallotStore;
use crossbeam_channel::Sender;
use ddemos_net::{DynEndpoint, DynEventEndpoint, EventAdapter, TransportEndpoint, Wait};
use ddemos_obs::Recorder;
use ddemos_protocol::clock::NodeClock;
use ddemos_protocol::initdata::VcInit;
use ddemos_protocol::messages::Msg;
use ddemos_protocol::posts::FinalizedVoteSet;
use ddemos_protocol::{NodeId, NodeKind};
use ddemos_storage::DynJournal;
use std::marker::PhantomData;
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
    endpoint: DynEventEndpoint,
    clock: NodeClock,
    journal: Option<DynJournal>,
    deliver: DeliverTarget,
    trace: Option<StepTrace>,
    recorder: Recorder,
    stop: Arc<AtomicBool>,
    force_end: Arc<AtomicBool>,
    close_forwarded: bool,
    timeout: Duration,
}

/// Upper bound on envelopes drained per readiness wake: keeps the
/// stop/close-polls flags responsive under a flooding peer.
const MAX_BURST: usize = 256;

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
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.shutdown();
                return;
            }
            if !self.close_forwarded && self.force_end.load(Ordering::SeqCst) {
                self.close_forwarded = true;
                self.step(VcInput::ClosePolls);
            }
            // The driver runs on the poll-based event surface: wait for
            // readiness in the transport's time base, then drain without
            // blocking. One readiness wake drains the whole buffered
            // burst: under a virtual clock deliveries are clock-paced and
            // the burst degenerates to one envelope (seeded runs are
            // step-for-step the old `recv_timeout` loop), while a real
            // transport under load hands the core a queue it can
            // batch-verify ahead of the steps.
            let inputs = match self.endpoint.wait(self.timeout) {
                Wait::Ready => {
                    // Envelopes waiting when the node wakes: what this
                    // burst will drain, so a saturated collector reads
                    // deep and an idle one reads 1. Sampled before the
                    // drain — after each dequeue of a drain-to-empty loop
                    // it is zero by construction. Unstable (`~`): it
                    // races with concurrent senders, so it never joins
                    // the determinism fingerprint.
                    self.recorder.observe(
                        "~vc.queue_depth",
                        "",
                        self.endpoint.read_pending() as u64,
                    );
                    let mut inputs = Vec::new();
                    while inputs.len() < MAX_BURST {
                        let Some(env) = self.endpoint.try_recv() else {
                            break;
                        };
                        // Control envelopes are a driver concern:
                        // authenticate (only client/EA identities may
                        // steer a replica) and translate into typed
                        // inputs.
                        let control = matches!(env.from.kind, NodeKind::Client | NodeKind::Ea);
                        inputs.push(match env.msg {
                            Msg::ClosePolls if control => VcInput::ClosePolls,
                            Msg::Shutdown if control => VcInput::Shutdown,
                            _ => VcInput::Deliver(env),
                        });
                        if matches!(inputs.last(), Some(VcInput::Shutdown)) {
                            break;
                        }
                    }
                    if inputs.is_empty() {
                        // `Ready` guarantees a buffered envelope; a bare
                        // drain is still safe to treat as a timer poll.
                        inputs.push(VcInput::Tick);
                    }
                    inputs
                }
                Wait::Timeout => vec![VcInput::Tick],
                Wait::Closed => {
                    self.shutdown();
                    return;
                }
            };
            // Warm the verified-signature memo for the whole burst in one
            // MSM before stepping (a no-op for bursts without signatures).
            if inputs.len() > 1 {
                self.core.preverify(&inputs);
            }
            for input in inputs {
                if matches!(input, VcInput::Shutdown) {
                    self.shutdown();
                    return;
                }
                self.step(input);
            }
        }
    }

    /// Final step: tells the core, then flushes any commit barriers the
    /// adaptive-commit mode deferred (nothing visible depended on them,
    /// but an orderly exit should not discard durable work).
    fn shutdown(&mut self) {
        self.step(VcInput::Shutdown);
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.commit() {
                eprintln!("vc: final journal commit failed ({e})");
            }
        }
    }

    /// One core step: stamp the time, record the trace, execute outputs.
    ///
    /// The whole handle — core step plus output execution, journal sync
    /// included — is charged to `vc.step_ns` under the input's message
    /// kind, so the profile attributes durable-commit latency to the
    /// message that forced it. Only `Deliver` inputs record under the
    /// stable names: delivered envelopes are virtual-time events with a
    /// seed-determined order, while `Tick`/`ClosePolls`/`Shutdown` are
    /// injected by the driver loop (idle timeouts, the harness
    /// `force_end` flag, the stop flag), whose count and interleaving
    /// depend on wall-clock scheduling even under virtual time — those
    /// go to `~`-prefixed unstable names, excluded from the fingerprint.
    fn step(&mut self, input: VcInput) {
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
        self.execute(outs);
        self.recorder.observe_since(step_name, label, start);
    }

    /// Replays the journal into the core (start-up and amnesia recovery).
    fn recover(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if let Err(e) = journal.recover(&mut self.core.durable()) {
            // The WAL truncated itself at the offending record, so the
            // applied prefix and the log agree; continue from the prefix.
            eprintln!("vc: journal replay stopped early ({e}); recovered the clean prefix");
        }
        let now_ms = self.clock.now_ms();
        let outs = self.core.post_recovery(now_ms);
        self.execute(outs);
    }

    /// Executes one batch of outputs, in order. Journal commits run
    /// inline (durable-before-visible); the snapshot cadence runs once at
    /// the end of the batch, when the core's state matches every appended
    /// record.
    fn execute(&mut self, outputs: Vec<VcOutput>) {
        let mut committed = false;
        // Adaptive commit: a barrier with no externally visible output
        // (send/delivery) after it in this batch guards nothing yet — its
        // frames may ride the group-commit window until the next visible-
        // guarded commit (or until the window fills inside `append`).
        // "Durable before visible" is untouched: every visible output is
        // still preceded, in-batch, by a commit that runs inline.
        let adaptive = self
            .journal
            .as_ref()
            .is_some_and(|journal| journal.adaptive_commit());
        let mut visible_after = vec![false; outputs.len()];
        if adaptive {
            let mut seen_visible = false;
            for (slot, output) in visible_after.iter_mut().zip(&outputs).rev() {
                *slot = seen_visible;
                if matches!(output, VcOutput::Send { .. } | VcOutput::Deliver(_)) {
                    seen_visible = true;
                }
            }
        }
        for (output, visible_later) in outputs.into_iter().zip(visible_after) {
            match output {
                VcOutput::Send { to, msg } => {
                    // The node's own ANNOUNCE starts vote-set consensus.
                    // Flipping the phase here — on a core output — keeps
                    // the transition a pure function of this node's event
                    // order, unlike the `ClosePolls` input, which may or
                    // may not arrive before the node self-closes at Tend.
                    if matches!(msg, Msg::Announce { .. }) {
                        self.recorder.set_phase("consensus");
                    }
                    self.endpoint.send(to, msg)
                }
                VcOutput::SetTimer(d) => self.timeout = d,
                VcOutput::Journal(bytes) => {
                    if let Some(journal) = self.journal.as_mut() {
                        if let Err(e) = journal.append(&bytes) {
                            if e.is_disk_full() {
                                // Device full: the record was NOT written
                                // (the WAL frame counter did not advance).
                                // Degrade to read-only and drop the rest of
                                // this batch — the Sends after this append
                                // depend on it being durable, and the
                                // journal on disk stays intact for replay.
                                eprintln!(
                                    "vc: journal device full; entering read-only degraded mode"
                                );
                                self.core.set_degraded();
                                break;
                            }
                            eprintln!("vc: journal append failed ({e}); continuing volatile");
                        }
                    }
                }
                VcOutput::Commit => {
                    if adaptive && !visible_later {
                        // Deferred: nothing visible in this batch depends
                        // on these frames being synced yet.
                        continue;
                    }
                    if let Some(journal) = self.journal.as_mut() {
                        if let Err(e) = journal.commit() {
                            eprintln!("vc: journal commit failed ({e})");
                        } else {
                            committed = true;
                        }
                    }
                }
                VcOutput::Deliver(finalized) => {
                    // Finalization: this node enters the push phase.
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
                VcOutput::Recover => {
                    if let Some(journal) = self.journal.as_mut() {
                        if let Err(e) = journal.crash(0) {
                            eprintln!("vc: journal crash simulation failed ({e})");
                        }
                    }
                    self.recover();
                }
            }
        }
        if committed {
            if let Some(journal) = self.journal.as_mut() {
                if let Err(e) = journal.maybe_compact(&self.core.durable()) {
                    eprintln!("vc: journal compaction failed ({e})");
                }
            }
        }
    }
}

/// The vote collector node: spawn functions producing a [`VcHandle`]
/// around a [`VcCore`]-driving thread.
pub struct VcNode<S> {
    _store: PhantomData<S>,
}

impl<S: BallotStore + 'static> VcNode<S> {
    /// Spawns a node thread; the finalized vote set is delivered on
    /// `result_tx` when vote-set consensus completes.
    pub fn spawn(
        init: VcInit,
        store: S,
        endpoint: impl TransportEndpoint + 'static,
        clock: NodeClock,
        beacon: u64,
        config: VcNodeConfig,
        result_tx: Sender<FinalizedVoteSet>,
    ) -> VcHandle {
        Self::spawn_durable(
            init, store, endpoint, clock, beacon, config, result_tx, None,
        )
    }

    /// [`VcNode::spawn`] with a durable journal: ballot-slot transitions
    /// are WAL-logged (group-committed, with a forced commit before every
    /// externally visible action that depends on them), and a
    /// [`Msg::Amnesia`] power-cycle signal makes the node drop volatile
    /// state and rebuild from snapshot + WAL replay. The journal should
    /// be freshly recovered (or empty); the node replays it on start.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_durable(
        init: VcInit,
        store: S,
        endpoint: impl TransportEndpoint + 'static,
        clock: NodeClock,
        beacon: u64,
        config: VcNodeConfig,
        result_tx: Sender<FinalizedVoteSet>,
        journal: Option<DynJournal>,
    ) -> VcHandle {
        Self::spawn_with(
            init,
            store,
            Box::new(endpoint),
            clock,
            beacon,
            config,
            DeliverTarget::Channel(result_tx),
            journal,
        )
    }

    /// [`VcNode::spawn_event`] for callers holding a blocking endpoint:
    /// lifts it through [`EventAdapter`] (an exact translation, virtual
    /// time included) onto the event surface the driver runs on.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_with(
        init: VcInit,
        store: S,
        endpoint: DynEndpoint,
        clock: NodeClock,
        beacon: u64,
        config: VcNodeConfig,
        deliver: DeliverTarget,
        journal: Option<DynJournal>,
    ) -> VcHandle {
        Self::spawn_event(
            init,
            store,
            Box::new(EventAdapter::new(endpoint)),
            clock,
            beacon,
            config,
            deliver,
            journal,
        )
    }

    /// The fully general spawn: any event endpoint, any delivery
    /// target (multi-process replicas deliver as [`Msg::Finalized`]
    /// envelopes to the coordinator).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_event(
        init: VcInit,
        store: S,
        endpoint: DynEventEndpoint,
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
}
