//! The in-process simulated network.
//!
//! `SimNet` stands in for the paper's asynchronous communications stack
//! (Netty + TLS, §V): message-oriented, authenticated (the router stamps
//! the true sender — a node cannot spoof another's identity, mirroring the
//! TLS-authenticated channels), with per-edge latency injection, loss,
//! duplication, and Byzantine fault hooks (crash, partition).
//!
//! Nodes register to obtain an [`Endpoint`]; each endpoint owns an inbox
//! channel. The network runs in one of two time modes:
//!
//! * **Real** ([`SimNet::new`]) — a scheduler thread holds the delay heap
//!   and releases messages at their wall-clock due time, providing the
//!   LAN/WAN emulation of §V.
//! * **Virtual** ([`SimNet::new_virtual`]) — no scheduler thread: the heap
//!   is an [`EventSource`] drained by a [`VirtualClock`] whenever every
//!   participant is blocked, so emulated latency costs no wall time and
//!   delivery order is a pure function of the seeds (see
//!   `ddemos_protocol::clock`).
//!
//! Timed fault injection ([`SimNet::schedule_fault`]) rides the same heap:
//! a [`NetFault`] (crash, recover, partition, heal, profile change, clock
//! drift) fires at its simulation timestamp in either mode.

use crate::latency::NetworkProfile;
use crate::stats::NetStats;
use crossbeam_channel::{unbounded, Receiver, RecvError, RecvTimeoutError, Sender};
use ddemos_protocol::clock::{
    ActorGuard, DriftRegistry, EventSource, VirtualClock, WaitOpts, WaitOutcome,
};
use ddemos_protocol::messages::Msg;
use ddemos_protocol::NodeId;
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

pub use ddemos_protocol::messages::Envelope;

/// A timed fault event (§V's netem / kill-based fault injection, as a
/// first-class scheduled object).
///
/// Two crash fidelities coexist:
///
/// * [`NetFault::Crash`] / [`NetFault::Recover`] — **crash retaining
///   memory**: only the node's network connectivity fails. The node
///   thread keeps running with all volatile state intact; recovery just
///   lets messages flow again. This models a transient link/process
///   freeze — the easy half of the paper's fault model.
/// * [`NetFault::CrashAmnesia`] — a **power cycle**: connectivity fails
///   *and* the node must discard every byte of volatile state, rebuilding
///   from its durable journal (snapshot + WAL replay, `ddemos-storage`)
///   before it serves again. This is the fault class the paper's
///   PostgreSQL-backed prototype is engineered to survive; pair it with a
///   later [`NetFault::Recover`] to restore traffic.
#[derive(Clone, Debug)]
pub enum NetFault {
    /// All traffic to and from the node is discarded from now on; the
    /// node's volatile state is *retained* (see the enum docs).
    Crash(NodeId),
    /// Heals a crash (messages flow again; nothing is replayed).
    Recover(NodeId),
    /// Power-cycles the node: traffic is discarded as for
    /// [`NetFault::Crash`], and the node is told — via a self-addressed
    /// [`Msg::Amnesia`] envelope that bypasses the crash filter — to drop
    /// volatile state and recover from its durable journal.
    CrashAmnesia(NodeId),
    /// Installs a bidirectional partition between two node groups.
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Installs a **gray partition**: traffic from the first group to the
    /// second is degraded in that direction only (replies still flow).
    /// `loss_pct` is the percentage of affected messages dropped:
    /// `100` is a clean one-way cut, anything in `1..100` is the
    /// lossy-but-not-dead link real deployments see (a flapping NIC, an
    /// asymmetric routing brown-out). Lossy drops are drawn from the
    /// network's seeded RNG, so a schedule replays identically.
    GrayPartition {
        /// Senders whose traffic is affected.
        from: Vec<NodeId>,
        /// Receivers the affected traffic was headed to.
        to: Vec<NodeId>,
        /// Drop percentage in `1..=100` for `from → to` messages.
        loss_pct: u8,
    },
    /// Removes all partitions — bidirectional **and** gray/asymmetric
    /// (a heal that left a one-way cut behind would be a stuck fault no
    /// schedule could express its way out of).
    HealPartitions,
    /// Heals only the cuts between two specific groups: bidirectional
    /// partitions installed between these groups (either orientation) and
    /// gray cuts from the first group to the second. Other cuts persist,
    /// so a campaign can heal one partition while another stays open.
    HealPartition(Vec<NodeId>, Vec<NodeId>),
    /// Replaces the latency/loss profile (drop / duplicate / reorder
    /// bursts are a `SetProfile` pair: degrade, then restore).
    SetProfile(NetworkProfile),
    /// Retunes a node's internal clock drift (milliseconds) through the
    /// registered [`DriftRegistry`].
    SetDrift(NodeId, i64),
}

// Envelopes dominate faults by two orders of magnitude in count; boxing
// them to shrink the rare Fault variant would add an allocation per
// delivered message.
#[allow(clippy::large_enum_variant)]
enum Payload {
    Env(Envelope),
    Fault(NetFault),
}

struct Scheduled {
    due_ns: u64,
    seq: u64,
    sent_ns: u64,
    payload: Payload,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due_ns == other.due_ns && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_ns, self.seq).cmp(&(other.due_ns, other.seq))
    }
}

enum TimeMode {
    Real { epoch: Instant },
    Virtual { clock: VirtualClock },
}

/// One installed gray cut (see [`NetFault::GrayPartition`]).
struct GrayCut {
    from: HashSet<NodeId>,
    to: HashSet<NodeId>,
    loss_pct: u8,
}

struct NetInner {
    inboxes: RwLock<HashMap<NodeId, Sender<Envelope>>>,
    crashed: RwLock<HashSet<NodeId>>,
    partitions: RwLock<Vec<(HashSet<NodeId>, HashSet<NodeId>)>>,
    gray: RwLock<Vec<GrayCut>>,
    profile: RwLock<NetworkProfile>,
    queue: Mutex<BinaryHeap<Reverse<Scheduled>>>,
    queue_cv: Condvar,
    rng: Mutex<StdRng>,
    seq: Mutex<u64>,
    shutdown: AtomicBool,
    stats: NetStats,
    time: TimeMode,
    drifts: RwLock<Option<DriftRegistry>>,
}

impl NetInner {
    fn now_ns(&self) -> u64 {
        match &self.time {
            TimeMode::Real { epoch } => epoch.elapsed().as_nanos() as u64,
            TimeMode::Virtual { clock } => clock.now_ns(),
        }
    }

    fn virtual_clock(&self) -> Option<&VirtualClock> {
        match &self.time {
            TimeMode::Virtual { clock } => Some(clock),
            TimeMode::Real { .. } => None,
        }
    }

    fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        {
            let crashed = self.crashed.read();
            if crashed.contains(&from) || crashed.contains(&to) {
                return true;
            }
        }
        {
            let parts = self.partitions.read();
            if parts.iter().any(|(a, b)| {
                (a.contains(&from) && b.contains(&to)) || (b.contains(&from) && a.contains(&to))
            }) {
                return true;
            }
        }
        // A 100% gray cut is a hard block in its one direction (the
        // reverse direction deliberately stays open). Lossy cuts are
        // probabilistic and resolved at send time (`gray_loss_pct`), not
        // here — `blocked` is also re-checked at delivery time, and a
        // second coin flip there would double the effective loss.
        self.gray
            .read()
            .iter()
            .any(|g| g.loss_pct >= 100 && g.from.contains(&from) && g.to.contains(&to))
    }

    /// The highest lossy (non-total) gray-cut percentage covering
    /// `from → to`, if any. Total cuts are handled by [`Self::blocked`].
    fn gray_loss_pct(&self, from: NodeId, to: NodeId) -> Option<u8> {
        self.gray
            .read()
            .iter()
            .filter(|g| g.loss_pct < 100 && g.from.contains(&from) && g.to.contains(&to))
            .map(|g| g.loss_pct)
            .max()
    }

    fn deliver(&self, env: Envelope, delay_ns: u64) {
        if self.blocked(env.from, env.to) {
            self.stats.record_dropped();
            return;
        }
        let to = env.to;
        let delivered = {
            let inboxes = self.inboxes.read();
            match inboxes.get(&to) {
                Some(tx) => tx.send(env).is_ok(),
                None => false,
            }
        };
        if delivered {
            self.stats.record_delivered(delay_ns);
            if let Some(clock) = self.virtual_clock() {
                clock.notify_key(to.clock_key());
            }
        } else {
            self.stats.record_dropped();
        }
    }

    fn apply_fault(&self, fault: NetFault) {
        match fault {
            NetFault::Crash(id) => {
                self.crashed.write().insert(id);
            }
            NetFault::CrashAmnesia(id) => {
                self.crashed.write().insert(id);
                // Tell the node to power-cycle. The signal must reach it
                // *despite* the crash filter (it models the reboot, not a
                // network message), so it goes straight into the inbox as
                // a self-addressed envelope — receivers ignore Amnesia
                // envelopes whose `from != to`, so peers cannot forge it.
                let delivered = {
                    let inboxes = self.inboxes.read();
                    match inboxes.get(&id) {
                        Some(tx) => tx
                            .send(Envelope {
                                from: id,
                                to: id,
                                msg: Msg::Amnesia,
                            })
                            .is_ok(),
                        None => false,
                    }
                };
                if delivered {
                    if let Some(clock) = self.virtual_clock() {
                        clock.notify_key(id.clock_key());
                    }
                }
            }
            NetFault::Recover(id) => {
                self.crashed.write().remove(&id);
            }
            NetFault::Partition(a, b) => {
                self.partitions
                    .write()
                    .push((a.into_iter().collect(), b.into_iter().collect()));
            }
            NetFault::GrayPartition { from, to, loss_pct } => {
                self.gray.write().push(GrayCut {
                    from: from.into_iter().collect(),
                    to: to.into_iter().collect(),
                    loss_pct,
                });
            }
            NetFault::HealPartitions => {
                self.partitions.write().clear();
                self.gray.write().clear();
            }
            NetFault::HealPartition(a, b) => {
                let a: HashSet<NodeId> = a.into_iter().collect();
                let b: HashSet<NodeId> = b.into_iter().collect();
                self.partitions
                    .write()
                    .retain(|(x, y)| !((*x == a && *y == b) || (*x == b && *y == a)));
                self.gray.write().retain(|g| !(g.from == a && g.to == b));
            }
            NetFault::SetProfile(profile) => {
                *self.profile.write() = profile;
            }
            NetFault::SetDrift(node, drift_ms) => {
                if let Some(reg) = self.drifts.read().as_ref() {
                    reg.set_ms(node.clock_key(), drift_ms);
                }
            }
        }
    }

    /// Processes one popped heap item (called with no locks held).
    fn process(&self, item: Scheduled) {
        match item.payload {
            Payload::Env(env) => {
                self.deliver(env, item.due_ns.saturating_sub(item.sent_ns));
            }
            Payload::Fault(fault) => self.apply_fault(fault),
        }
    }
}

impl EventSource for NetInner {
    fn next_due_ns(&self) -> Option<u64> {
        self.queue.lock().peek().map(|Reverse(s)| s.due_ns)
    }

    fn pop_due(&self, now_ns: u64) -> bool {
        let item = {
            let mut queue = self.queue.lock();
            match queue.peek() {
                Some(Reverse(s)) if s.due_ns <= now_ns => Some(queue.pop().expect("peeked").0),
                _ => None,
            }
        };
        match item {
            Some(item) => {
                self.process(item);
                true
            }
            None => false,
        }
    }
}

/// Handle to the simulated network (cheaply cloneable).
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimNet(nodes: {})", self.inner.inboxes.read().len())
    }
}

impl SimNet {
    /// Creates a real-time network with the given profile and RNG seed,
    /// spawning the delivery scheduler thread.
    pub fn new(profile: NetworkProfile, seed: u64) -> SimNet {
        let net = Self::with_mode(
            profile,
            seed,
            TimeMode::Real {
                epoch: Instant::now(),
            },
        );
        let worker = net.clone();
        std::thread::Builder::new()
            .name("simnet-scheduler".into())
            .spawn(move || worker.scheduler_loop())
            .expect("spawn scheduler");
        net
    }

    /// Creates a virtual-time network: the delay heap advances the given
    /// clock event-by-event instead of sleeping (no scheduler thread).
    pub fn new_virtual(profile: NetworkProfile, seed: u64, clock: VirtualClock) -> SimNet {
        let net = Self::with_mode(profile, seed, TimeMode::Virtual { clock });
        let weak: Weak<NetInner> = Arc::downgrade(&net.inner);
        if let TimeMode::Virtual { clock } = &net.inner.time {
            clock.set_source(weak as Weak<dyn EventSource>);
        }
        net
    }

    fn with_mode(profile: NetworkProfile, seed: u64, time: TimeMode) -> SimNet {
        SimNet {
            inner: Arc::new(NetInner {
                inboxes: RwLock::new(HashMap::new()),
                crashed: RwLock::new(HashSet::new()),
                partitions: RwLock::new(Vec::new()),
                gray: RwLock::new(Vec::new()),
                profile: RwLock::new(profile),
                queue: Mutex::new(BinaryHeap::new()),
                queue_cv: Condvar::new(),
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                seq: Mutex::new(0),
                shutdown: AtomicBool::new(false),
                stats: NetStats::default(),
                time,
                drifts: RwLock::new(None),
            }),
        }
    }

    /// The virtual clock driving this network, if in virtual mode.
    pub fn virtual_clock(&self) -> Option<&VirtualClock> {
        self.inner.virtual_clock()
    }

    /// Nanoseconds of simulation time since the network started (wall time
    /// in real mode, virtual time otherwise).
    pub fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// Connects the per-node drift registry so scheduled
    /// [`NetFault::SetDrift`] events can retune node clocks.
    pub fn set_drift_registry(&self, registry: DriftRegistry) {
        *self.inner.drifts.write() = Some(registry);
    }

    /// Registers a node, returning its endpoint.
    ///
    /// # Panics
    /// Panics if the node id is already registered.
    pub fn register(&self, id: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        let prev = self.inner.inboxes.write().insert(id, tx);
        assert!(prev.is_none(), "node {id} registered twice");
        Endpoint {
            id,
            rx,
            net: self.clone(),
        }
    }

    /// Marks a node as crashed: all traffic to and from it is discarded.
    ///
    /// This is the **message-loss-only** fault (crash *retaining*
    /// memory): the node thread keeps running with its volatile state
    /// intact and merely goes dark on the network. Use
    /// [`SimNet::crash_amnesia`] for the full power-cycle fault.
    pub fn crash(&self, id: NodeId) {
        self.inner.apply_fault(NetFault::Crash(id));
    }

    /// Power-cycles a node: traffic is discarded as for [`SimNet::crash`]
    /// *and* the node is signalled to drop volatile state and rebuild
    /// from its durable journal (see [`NetFault::CrashAmnesia`]). Call
    /// [`SimNet::restart`] to let traffic flow again afterwards.
    pub fn crash_amnesia(&self, id: NodeId) {
        self.inner.apply_fault(NetFault::CrashAmnesia(id));
    }

    /// Heals a crashed node: messages flow again. Nothing is replayed,
    /// and nothing is restored either — after a plain [`SimNet::crash`]
    /// the node simply resumes with the volatile state it kept all along
    /// (the "crash-retaining-memory" model); after a
    /// [`SimNet::crash_amnesia`] the node has already rebuilt itself from
    /// its journal by the time traffic returns.
    pub fn restart(&self, id: NodeId) {
        self.inner.apply_fault(NetFault::Recover(id));
    }

    /// Installs a bidirectional partition between two node groups.
    pub fn partition(
        &self,
        a: impl IntoIterator<Item = NodeId>,
        b: impl IntoIterator<Item = NodeId>,
    ) {
        self.inner.apply_fault(NetFault::Partition(
            a.into_iter().collect(),
            b.into_iter().collect(),
        ));
    }

    /// Installs a gray (asymmetric) partition: `loss_pct` percent of the
    /// messages from the first group to the second are dropped; the
    /// reverse direction is untouched. See [`NetFault::GrayPartition`].
    pub fn gray_partition(
        &self,
        from: impl IntoIterator<Item = NodeId>,
        to: impl IntoIterator<Item = NodeId>,
        loss_pct: u8,
    ) {
        self.inner.apply_fault(NetFault::GrayPartition {
            from: from.into_iter().collect(),
            to: to.into_iter().collect(),
            loss_pct,
        });
    }

    /// Removes all partitions, including gray/asymmetric cuts.
    pub fn heal_partitions(&self) {
        self.inner.apply_fault(NetFault::HealPartitions);
    }

    /// Heals only the cuts between the two given groups (see
    /// [`NetFault::HealPartition`]); every other cut persists.
    pub fn heal_partition(
        &self,
        a: impl IntoIterator<Item = NodeId>,
        b: impl IntoIterator<Item = NodeId>,
    ) {
        self.inner.apply_fault(NetFault::HealPartition(
            a.into_iter().collect(),
            b.into_iter().collect(),
        ));
    }

    /// Schedules a fault to fire at `at` of simulation time (since network
    /// start), in either time mode.
    pub fn schedule_fault(&self, at: Duration, fault: NetFault) {
        let due_ns = at.as_nanos() as u64;
        let now = self.inner.now_ns();
        self.push_scheduled(due_ns.max(now), now, Payload::Fault(fault));
    }

    /// Network statistics counters.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Stops the network; pending messages are dropped. Every inbox is
    /// disconnected, so a receiver drains what it holds and then sees
    /// `Disconnected`. In virtual mode this also closes the clock,
    /// releasing every blocked wait.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.inboxes.write().clear();
        self.inner.queue_cv.notify_all();
        if let Some(clock) = self.inner.virtual_clock() {
            clock.close();
        }
    }

    fn push_scheduled(&self, due_ns: u64, sent_ns: u64, payload: Payload) {
        {
            let mut queue = self.inner.queue.lock();
            let mut seq = self.inner.seq.lock();
            *seq += 1;
            queue.push(Reverse(Scheduled {
                due_ns,
                seq: *seq,
                sent_ns,
                payload,
            }));
        }
        match &self.inner.time {
            TimeMode::Real { .. } => {
                self.inner.queue_cv.notify_one();
            }
            TimeMode::Virtual { clock } => clock.on_new_event(),
        }
    }

    fn send(&self, env: Envelope) {
        self.inner.stats.record_sent(&env.msg);
        if self.inner.blocked(env.from, env.to) {
            self.inner.stats.record_dropped();
            return;
        }
        let gray_loss = self.inner.gray_loss_pct(env.from, env.to);
        let (delay, dup) = {
            let profile = self.inner.profile.read();
            let mut rng = self.inner.rng.lock();
            // Lossy (non-total) gray cut: one seeded coin per send, drawn
            // here so the draw order — and therefore the whole run — stays
            // a pure function of the seed.
            if let Some(pct) = gray_loss {
                if rng.gen_range(0..100u8) < pct {
                    self.inner.stats.record_dropped();
                    return;
                }
            }
            if profile.drop_probability > 0.0 && rng.gen_bool(profile.drop_probability) {
                self.inner.stats.record_dropped();
                return;
            }
            let dup =
                profile.duplicate_probability > 0.0 && rng.gen_bool(profile.duplicate_probability);
            (profile.delay(env.from, env.to, &mut *rng), dup)
        };
        let virtual_mode = matches!(self.inner.time, TimeMode::Virtual { .. });
        if delay.is_zero() && !dup && !virtual_mode {
            // Real-mode fast path. Virtual mode always schedules, so that
            // delivery happens one event at a time during clock
            // advancement — the property determinism rests on.
            self.inner.deliver(env, 0);
            return;
        }
        let now = self.inner.now_ns();
        let due = now + delay.as_nanos() as u64;
        if dup {
            self.push_scheduled(due + 50_000, now, Payload::Env(env.clone()));
        }
        self.push_scheduled(due, now, Payload::Env(env));
    }

    fn scheduler_loop(&self) {
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut due_now = Vec::new();
            {
                let mut queue = self.inner.queue.lock();
                loop {
                    let now = self.inner.now_ns();
                    match queue.peek() {
                        Some(Reverse(s)) if s.due_ns <= now => {
                            due_now.push(queue.pop().expect("peeked").0);
                        }
                        Some(Reverse(s)) => {
                            let wait = Duration::from_nanos(s.due_ns - now);
                            if due_now.is_empty() {
                                self.inner.queue_cv.wait_for(&mut queue, wait);
                                if self.inner.shutdown.load(Ordering::SeqCst) {
                                    return;
                                }
                                continue;
                            }
                            break;
                        }
                        None => {
                            if due_now.is_empty() {
                                self.inner
                                    .queue_cv
                                    .wait_for(&mut queue, Duration::from_millis(50));
                                if self.inner.shutdown.load(Ordering::SeqCst) {
                                    return;
                                }
                                continue;
                            }
                            break;
                        }
                    }
                }
            }
            for item in due_now {
                self.inner.process(item);
            }
        }
    }
}

/// A node's attachment to the network: an identity plus an inbox.
pub struct Endpoint {
    id: NodeId,
    rx: Receiver<Envelope>,
    net: SimNet,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Endpoint({})", self.id)
    }
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Nanoseconds of simulation time (the base for patience and latency
    /// measurements that must hold in both time modes).
    pub fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }

    /// Registers the current thread as a virtual-time actor for this
    /// network (no-op handle in real mode). Node event loops call this so
    /// the clock never advances while they are processing.
    pub fn actor_guard(&self) -> Option<ActorGuard> {
        self.net.virtual_clock().map(VirtualClock::register_actor)
    }

    /// Sends a message; the router stamps this endpoint's id as the source.
    pub fn send(&self, to: NodeId, msg: Msg) {
        self.net.send(Envelope {
            from: self.id,
            to,
            msg,
        });
    }

    /// Blocking receive.
    ///
    /// # Errors
    /// Returns `Err` when the network has shut down.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        let Some(clock) = self.net.virtual_clock().cloned() else {
            return self.rx.recv();
        };
        loop {
            match self.rx.try_recv() {
                Ok(env) => return Ok(env),
                Err(crossbeam_channel::TryRecvError::Disconnected) => return Err(RecvError),
                Err(crossbeam_channel::TryRecvError::Empty) => {}
            }
            match self.wait_on_clock(&clock, None) {
                WaitOutcome::Notified => {}
                WaitOutcome::TimerFired => unreachable!("no deadline was set"),
                WaitOutcome::Closed => return self.rx.try_recv().map_err(|_| RecvError),
            }
        }
    }

    /// Receive with a timeout (event loops use this to poll clocks). The
    /// timeout is interpreted in the network's time base — virtual time
    /// under a virtual clock.
    ///
    /// # Errors
    /// `Timeout` when no message arrived, `Disconnected` on shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let Some(clock) = self.net.virtual_clock().cloned() else {
            return self.rx.recv_timeout(timeout);
        };
        let deadline = clock.now_ns().saturating_add(timeout.as_nanos() as u64);
        loop {
            match self.rx.try_recv() {
                Ok(env) => return Ok(env),
                Err(crossbeam_channel::TryRecvError::Disconnected) => {
                    return Err(RecvTimeoutError::Disconnected)
                }
                Err(crossbeam_channel::TryRecvError::Empty) => {}
            }
            match self.wait_on_clock(&clock, Some(deadline)) {
                WaitOutcome::Notified => {}
                WaitOutcome::TimerFired => {
                    return self.rx.try_recv().map_err(|_| RecvTimeoutError::Timeout)
                }
                WaitOutcome::Closed => {
                    return self
                        .rx
                        .try_recv()
                        .map_err(|_| RecvTimeoutError::Disconnected)
                }
            }
        }
    }

    fn wait_on_clock(&self, clock: &VirtualClock, deadline_ns: Option<u64>) -> WaitOutcome {
        let key = self.id.clock_key();
        // The ready re-check under the clock lock closes the window where
        // a delivery lands between `try_recv` and the wait registration.
        clock.wait(
            WaitOpts {
                notify_key: Some(key),
                tiebreak: key,
                deadline_ns,
            },
            Some(&|| !self.rx.is_empty()),
        )
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// Envelopes currently buffered in the inbox. Races with concurrent
    /// senders by nature; consumers treat it as an unstable
    /// observability signal, never as protocol input.
    pub fn read_pending(&self) -> usize {
        self.rx.len()
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &SimNet {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_protocol::SerialNo;

    fn vote_msg(n: u64) -> Msg {
        Msg::Vote {
            request_id: n,
            serial: SerialNo(n),
            vote_code: VoteCode([0; 20]),
        }
    }

    fn serial_of(msg: &Msg) -> u64 {
        match msg {
            Msg::Vote { serial, .. } => serial.0,
            _ => panic!("unexpected message"),
        }
    }

    #[test]
    fn instant_delivery() {
        let net = SimNet::new(NetworkProfile::instant(), 1);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        a.send(NodeId::vc(1), vote_msg(7));
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, NodeId::vc(0));
        assert_eq!(serial_of(&env.msg), 7);
        net.shutdown();
    }

    #[test]
    fn delayed_delivery_respects_latency() {
        let net = SimNet::new(NetworkProfile::wan(), 2);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        let t0 = Instant::now();
        a.send(NodeId::vc(1), vote_msg(1));
        let _ = b.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(24), "elapsed {elapsed:?}");
        net.shutdown();
    }

    #[test]
    fn crash_blocks_traffic() {
        let net = SimNet::new(NetworkProfile::instant(), 3);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        net.crash(NodeId::vc(1));
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        net.restart(NodeId::vc(1));
        a.send(NodeId::vc(1), vote_msg(2));
        assert_eq!(
            serial_of(&b.recv_timeout(Duration::from_secs(1)).unwrap().msg),
            2
        );
        net.shutdown();
    }

    #[test]
    fn partition_and_heal() {
        let net = SimNet::new(NetworkProfile::instant(), 4);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        net.partition([NodeId::vc(0)], [NodeId::vc(1)]);
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        net.heal_partitions();
        a.send(NodeId::vc(1), vote_msg(2));
        assert_eq!(
            serial_of(&b.recv_timeout(Duration::from_secs(1)).unwrap().msg),
            2
        );
        net.shutdown();
    }

    #[test]
    fn gray_partition_is_one_directional() {
        let net = SimNet::new(NetworkProfile::instant(), 40);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        net.gray_partition([NodeId::vc(0)], [NodeId::vc(1)], 100);
        // a → b: cut.
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        // b → a: the reverse direction still flows.
        b.send(NodeId::vc(0), vote_msg(2));
        assert_eq!(
            serial_of(&a.recv_timeout(Duration::from_secs(1)).unwrap().msg),
            2
        );
        net.shutdown();
    }

    #[test]
    fn heal_partitions_clears_gray_state() {
        let net = SimNet::new(NetworkProfile::instant(), 41);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        net.gray_partition([NodeId::vc(0)], [NodeId::vc(1)], 100);
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        net.heal_partitions();
        a.send(NodeId::vc(1), vote_msg(2));
        assert_eq!(
            serial_of(&b.recv_timeout(Duration::from_secs(1)).unwrap().msg),
            2
        );
        net.shutdown();
    }

    #[test]
    fn targeted_heal_leaves_other_cuts_in_place() {
        let net = SimNet::new(NetworkProfile::instant(), 42);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        let c = net.register(NodeId::vc(2));
        net.partition([NodeId::vc(0)], [NodeId::vc(1)]);
        net.gray_partition([NodeId::vc(0)], [NodeId::vc(2)], 100);
        net.heal_partition([NodeId::vc(0)], [NodeId::vc(1)]);
        // The healed symmetric cut flows again…
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        // …while the untargeted gray cut persists.
        a.send(NodeId::vc(2), vote_msg(2));
        assert!(c.recv_timeout(Duration::from_millis(50)).is_err());
        net.heal_partition([NodeId::vc(0)], [NodeId::vc(2)]);
        a.send(NodeId::vc(2), vote_msg(3));
        assert!(c.recv_timeout(Duration::from_secs(1)).is_ok());
        net.shutdown();
    }

    #[test]
    fn lossy_gray_partition_drops_some_but_not_all() {
        // Property, checked across seeds: at 50% loss a burst of sends
        // loses some messages and keeps some — the link is degraded, not
        // dead — and the reverse direction loses nothing.
        for seed in 50..54u64 {
            let clock = VirtualClock::new();
            let net = SimNet::new_virtual(NetworkProfile::instant(), seed, clock);
            let a = net.register(NodeId::vc(0));
            let b = net.register(NodeId::vc(1));
            let _actor = b.actor_guard();
            net.gray_partition([NodeId::vc(0)], [NodeId::vc(1)], 50);
            for i in 0..100 {
                a.send(NodeId::vc(1), vote_msg(i));
            }
            let mut got = 0u32;
            while b.recv_timeout(Duration::from_millis(10)).is_ok() {
                got += 1;
            }
            assert!(got > 0, "seed {seed}: 50% loss must not kill the link");
            assert!(got < 100, "seed {seed}: 50% loss must drop something");
            for i in 0..20 {
                b.send(NodeId::vc(0), vote_msg(i));
            }
            let mut reverse = 0u32;
            while a.recv_timeout(Duration::from_millis(10)).is_ok() {
                reverse += 1;
            }
            assert_eq!(reverse, 20, "seed {seed}: reverse direction untouched");
            net.shutdown();
        }
    }

    #[test]
    fn drop_probability_drops_everything_at_one() {
        let net = SimNet::new(NetworkProfile::instant().with_drop(1.0), 5);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        for i in 0..10 {
            a.send(NodeId::vc(1), vote_msg(i));
        }
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(net.stats().dropped(), 10);
        net.shutdown();
    }

    #[test]
    fn ordering_preserved_with_equal_delay() {
        let net = SimNet::new(NetworkProfile::instant(), 6);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        for i in 0..100 {
            a.send(NodeId::vc(1), vote_msg(i));
        }
        for i in 0..100 {
            assert_eq!(
                serial_of(&b.recv_timeout(Duration::from_secs(1)).unwrap().msg),
                i
            );
        }
        net.shutdown();
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let net = SimNet::new(NetworkProfile::lan(), 7);
        let sink = net.register(NodeId::vc(0));
        let mut handles = Vec::new();
        for s in 1..=4u32 {
            let ep = net.register(NodeId::vc(s));
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    ep.send(NodeId::vc(0), vote_msg(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while sink.recv_timeout(Duration::from_millis(500)).is_ok() {
            got += 1;
            if got == 200 {
                break;
            }
        }
        assert_eq!(got, 200);
        net.shutdown();
    }

    #[test]
    fn duplicates_arrive_twice() {
        let net = SimNet::new(NetworkProfile::lan().with_duplicates(1.0), 8);
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        net.shutdown();
    }

    // ----- virtual time ----------------------------------------------------

    #[test]
    fn virtual_wan_delivery_is_instant_in_wall_time() {
        let clock = VirtualClock::new();
        let net = SimNet::new_virtual(NetworkProfile::wan(), 9, clock.clone());
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        let wall = Instant::now();
        a.send(NodeId::vc(1), vote_msg(1));
        let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(serial_of(&env.msg), 1);
        // 25ms of emulated latency elapsed virtually…
        assert!(clock.now_ns() >= 25_000_000, "virtual {}ns", clock.now_ns());
        // …but barely any wall time.
        assert!(wall.elapsed() < Duration::from_secs(1));
        net.shutdown();
    }

    #[test]
    fn virtual_recv_timeout_is_virtual() {
        let clock = VirtualClock::new();
        let net = SimNet::new_virtual(NetworkProfile::wan(), 10, clock.clone());
        let a = net.register(NodeId::vc(0));
        let wall = Instant::now();
        // 60 virtual seconds of nothing: must time out quickly in wall time.
        assert!(a.recv_timeout(Duration::from_secs(60)).is_err());
        assert_eq!(clock.now_ms(), 60_000);
        assert!(wall.elapsed() < Duration::from_secs(5));
        net.shutdown();
    }

    #[test]
    fn scheduled_fault_fires_at_virtual_time() {
        let clock = VirtualClock::new();
        let net = SimNet::new_virtual(NetworkProfile::instant(), 11, clock.clone());
        let a = net.register(NodeId::vc(0));
        let b = net.register(NodeId::vc(1));
        net.schedule_fault(Duration::from_millis(100), NetFault::Crash(NodeId::vc(1)));
        net.schedule_fault(Duration::from_millis(300), NetFault::Recover(NodeId::vc(1)));
        // Before the crash: flows.
        a.send(NodeId::vc(1), vote_msg(1));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_ok());
        // Sleep past the crash point; traffic is discarded.
        clock.sleep(Duration::from_millis(150));
        a.send(NodeId::vc(1), vote_msg(2));
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        // After recovery: flows again.
        clock.sleep(Duration::from_millis(200));
        a.send(NodeId::vc(1), vote_msg(3));
        assert_eq!(
            serial_of(&b.recv_timeout(Duration::from_millis(50)).unwrap().msg),
            3
        );
        net.shutdown();
    }

    #[test]
    fn virtual_delivery_order_is_seed_deterministic() {
        let run = |seed: u64| -> (Vec<u64>, u64) {
            let clock = VirtualClock::new();
            let net = SimNet::new_virtual(
                NetworkProfile::lan().with_duplicates(0.3),
                seed,
                clock.clone(),
            );
            let a = net.register(NodeId::vc(0));
            let b = net.register(NodeId::vc(1));
            let _actor = b.actor_guard();
            for i in 0..50 {
                a.send(NodeId::vc(1), vote_msg(i));
            }
            let mut order = Vec::new();
            while let Ok(env) = b.recv_timeout(Duration::from_millis(10)) {
                order.push(serial_of(&env.msg));
            }
            let t = clock.now_ns();
            net.shutdown();
            (order, t)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42).0,
            run(43).0,
            "different seeds should jitter differently"
        );
    }
}
