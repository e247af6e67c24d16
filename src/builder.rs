//! The typed entry point of the facade: [`ElectionBuilder`] and the
//! [`StoreKind`] ballot-store selector.

use crate::election::{Election, NetBackend, RunState};
use crate::schedule::Schedule;
use crate::tcp::{TcpBackend, TcpCluster};
use ddemos_bb::{BbApi, BbNode, MajorityReader};
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_net::{NetworkProfile, SimNet};
use ddemos_obs::{Recorder, TimeDomain, TimeSource};
use ddemos_protocol::ballot::Ballot;
use ddemos_protocol::clock::{GlobalClock, VirtualClock, NS_PER_MS};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::params::ParamError;
use ddemos_protocol::{NodeId, NodeKind, SerialNo};
use ddemos_storage::{
    DiskProfile, DynDisk, DynJournal, FileDisk, Journal, JournalConfig, SimDisk, StorageError,
};
use ddemos_trustee::Trustee;
use ddemos_vc::{
    BallotStore, DeliverTarget, FnStore, LatencyStore, MemoryStore, StepTrace, StorageModel,
    TriggeredAdversary, VcBehavior, VcHandle, VcNodeConfig,
};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::Arc;
use std::time::Duration;

/// Idle poll granularity of VC node event loops under a virtual clock.
/// Each idle wake is a discrete event, so the granularity trades virtual
/// end-of-poll detection precision against event count — 50 virtual ms
/// keeps a 10-minute emulated election at a few thousand idle events.
const VIRTUAL_POLL: Duration = Duration::from_millis(50);
/// Virtual-time advancement margin past `end_ms` before the clock stalls
/// (the runaway backstop for scenarios that can never finish).
const VIRTUAL_LIMIT_MARGIN_MS: u64 = 600_000;

/// Which ballot store backs each VC node (§V's cache / disk / virtual
/// deployments; see `DESIGN.md` for the full hierarchy).
#[derive(Clone, Copy, Debug, Default)]
pub enum StoreKind {
    /// Fully materialized rows served from memory (the Fig 4 cache setup).
    #[default]
    Memory,
    /// Materialized rows behind the calibrated index-depth latency model
    /// (the Fig 5a disk experiment).
    Latency(StorageModel),
    /// Rows PRF-derived on demand — a virtual electorate with nothing
    /// materialized per VC node (the 250M-ballot configuration). The
    /// builder retains the Election Authority's derivation state behind
    /// the store, standing in for each node's pre-populated database.
    /// Printed voter ballots are materialized only for the cast range
    /// named via [`ElectionBuilder::materialize_first`] (none by default).
    Virtual,
}

/// Which durability layer backs the stateful replicas (VC ballot slots,
/// BB accepted writes). The default is [`Durability::None`] — pure
/// in-memory nodes, the pre-durability behaviour, where a
/// `CrashAmnesia` fault genuinely loses state.
#[derive(Clone, Debug, Default)]
pub enum Durability {
    /// No journals: node state is volatile.
    #[default]
    None,
    /// Deterministic in-memory disks ([`SimDisk`]) whose write/fsync/read
    /// latencies are charged on the election's global clock — virtual
    /// elections pay them in virtual time. The right choice for the
    /// fuzzer and for benchmarks.
    Sim(DiskProfile),
    /// Real files ([`FileDisk`]) under the given directory, one
    /// subdirectory per node (`vc-0/`, `bb-1/`, …). State survives the
    /// process.
    File(std::path::PathBuf),
}

impl Durability {
    /// Shorthand for [`Durability::Sim`] with the default NVMe-ish
    /// profile.
    pub fn sim() -> Durability {
        Durability::Sim(DiskProfile::default())
    }

    fn enabled(&self) -> bool {
        !matches!(self, Durability::None)
    }
}

/// Which transport carries the election's messages.
///
/// [`ElectionBuilder::network`] accepts either variant — or a bare
/// [`NetworkProfile`], which converts into [`Network::Sim`], so every
/// pre-existing `.network(NetworkProfile::lan())` call reads unchanged.
#[derive(Clone, Debug)]
pub enum Network {
    /// The in-process simulated network with the given latency/loss
    /// profile (fault injection, virtual time, deterministic replay).
    Sim(NetworkProfile),
    /// A real multi-process deployment over localhost/LAN TCP sockets:
    /// the builder produces only the *coordinator*; each VC/BB replica
    /// runs [`crate::tcp::run_vc_replica`] /
    /// [`crate::tcp::run_bb_replica`] in its own process (see
    /// `examples/tcp_cluster.rs`).
    Tcp(TcpCluster),
}

impl From<NetworkProfile> for Network {
    fn from(profile: NetworkProfile) -> Network {
        Network::Sim(profile)
    }
}

/// A setup corruption hook registered with
/// [`ElectionBuilder::corrupt_setup`].
type SetupCorruption = Box<dyn FnOnce(&mut SetupOutput)>;

/// [`TimeSource`] adapter over the election's [`GlobalClock`], so
/// recorders charge time on whatever clock the election runs on —
/// virtual elections profile in deterministic virtual nanoseconds.
struct ClockSource(GlobalClock);

impl TimeSource for ClockSource {
    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }
}

/// Errors constructing an [`Election`] from a builder.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The (possibly builder-adjusted) election parameters are invalid.
    Params(ParamError),
    /// [`ElectionBuilder::adversary`] or [`ElectionBuilder::clock_drift`]
    /// named a node that is not a VC node of this election.
    BadNode(NodeId),
    /// The durability layer failed to initialize (journal creation or
    /// recovery — [`Durability::File`] paths, a corrupt pre-existing
    /// journal).
    Storage(String),
    /// Partial materialization ([`ElectionBuilder::materialize_first`] or a
    /// virtual store) requires [`SetupProfile::VcOnly`]: bulletin-board and
    /// trustee payloads cannot be partially dealt.
    PartialSetupRequiresVcOnly,
    /// The named builder option only applies to the simulated network;
    /// [`Network::Tcp`] replicas run in their own processes, outside the
    /// builder's reach.
    TcpUnsupported(&'static str),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Params(e) => write!(f, "invalid election parameters: {e}"),
            BuildError::BadNode(id) => write!(f, "{id} is not a VC node of this election"),
            BuildError::Storage(e) => write!(f, "durability layer failed: {e}"),
            BuildError::PartialSetupRequiresVcOnly => {
                write!(f, "partial materialization requires SetupProfile::VcOnly")
            }
            BuildError::TcpUnsupported(what) => {
                write!(f, "{what} is not available over Network::Tcp")
            }
        }
    }
}
impl std::error::Error for BuildError {}

impl From<ParamError> for BuildError {
    fn from(e: ParamError) -> BuildError {
        BuildError::Params(e)
    }
}

/// Typed builder for a complete D-DEMOS election deployment.
///
/// One `build()` call runs EA setup, stands up the simulated network, the
/// global clock, every VC node thread, the BB replicas, and the
/// trustees-in-waiting, and returns the [`Election`] facade whose phase
/// handles drive voting, close, tally, and audit. See the crate docs for a
/// copy-pasteable example.
pub struct ElectionBuilder {
    params: ddemos_protocol::ElectionParams,
    seed: u64,
    profile: SetupProfile,
    network: Network,
    store: StoreKind,
    traces: Vec<StepTrace>,
    behaviors: Vec<VcBehavior>,
    adversaries: Vec<(NodeId, VcBehavior)>,
    triggered: Vec<(NodeId, TriggeredAdversary)>,
    bb_divergent: Vec<u32>,
    disk_pool: Option<Arc<crate::campaign::DiskPool>>,
    drifts_ms: Vec<i64>,
    node_drifts: Vec<(NodeId, i64)>,
    materialize_first: Option<u64>,
    corruptions: Vec<SetupCorruption>,
    threads: Option<usize>,
    virtual_time: bool,
    schedule: Schedule,
    close_timeout: Option<Duration>,
    durability: Durability,
    journal_config: JournalConfig,
    metrics: bool,
    profiling: bool,
}

impl ElectionBuilder {
    /// Starts a builder from validated parameters. Every threshold can
    /// still be adjusted before `build()`.
    pub fn new(params: ddemos_protocol::ElectionParams) -> ElectionBuilder {
        ElectionBuilder {
            params,
            seed: 0,
            profile: SetupProfile::Full,
            network: Network::Sim(NetworkProfile::lan()),
            store: StoreKind::Memory,
            traces: Vec::new(),
            behaviors: Vec::new(),
            adversaries: Vec::new(),
            triggered: Vec::new(),
            bb_divergent: Vec::new(),
            disk_pool: None,
            drifts_ms: Vec::new(),
            node_drifts: Vec::new(),
            materialize_first: None,
            corruptions: Vec::new(),
            threads: None,
            virtual_time: false,
            schedule: Schedule::default(),
            close_timeout: None,
            durability: Durability::None,
            journal_config: JournalConfig::default(),
            metrics: true,
            profiling: false,
        }
    }

    /// Enables or disables metrics collection (default: enabled). Every
    /// node gets a [`Recorder`] charging time on the election's clock:
    /// virtual-time elections produce a deterministic, seed-replayable
    /// [`ddemos_obs::MetricsSnapshot`] that joins the report's canonical
    /// text; wall-clock elections tag the snapshot
    /// [`TimeDomain::Wall`] and it stays out of the fingerprint.
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Wall-clock profiling mode: node recorders read real monotonic
    /// time (regardless of [`ElectionBuilder::virtual_time`]) and the
    /// process-global crypto hook is installed, so Schnorr verification
    /// and MSM scopes are timed too. The resulting snapshot is
    /// [`TimeDomain::Wall`]-tagged — useful for finding hot code, never
    /// for determinism checks. Render it with
    /// [`ddemos_obs::MetricsSnapshot::profile_table`] (see
    /// `examples/profile.rs`).
    #[must_use]
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Backs every VC node's ballot slots and every BB node's accepted
    /// writes with a durable journal (group-committed WAL + snapshots,
    /// `ddemos-storage`), making [`NetFault::CrashAmnesia`]
    /// (`ddemos_net::NetFault`) recoverable: a power-cycled node rebuilds
    /// its durable obligations — used codes, UCERTs, issued receipts —
    /// from snapshot + WAL replay instead of forgetting them.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// No effect. It used to let VC drivers skip a commit barrier no
    /// send followed; collectors no longer emit such barriers (DESIGN.md
    /// §12.6). Kept because the frozen `ddbench/` calls it; the next
    /// `benchmark` PR removes it.
    #[must_use]
    pub fn adaptive_commit(mut self, enabled: bool) -> Self {
        self.journal_config.adaptive_commit = enabled;
        self
    }

    /// Runs the election on a deterministic discrete-event clock instead
    /// of wall time: emulated network latency, store latency, and the
    /// voting window cost (almost) no wall clock, and — driven from the
    /// building thread — every delivery order and the reported virtual
    /// phase timings are a pure function of the builder seed.
    ///
    /// The building thread is registered as the driver actor; drive the
    /// returned [`Election`] from that thread.
    #[must_use]
    pub fn virtual_time(mut self) -> Self {
        self.virtual_time = true;
        self
    }

    /// Installs a timed fault [`Schedule`] (crash/recover, partition/heal,
    /// loss/duplication/reorder bursts, clock drift) applied at simulation
    /// timestamps — virtual ones under [`ElectionBuilder::virtual_time`].
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides how long [`Election::close`] waits (in wall time) for the
    /// VC quorum's finalized vote sets (default 120 s; fuzz harnesses use
    /// a short value so stalled scenarios fail fast).
    #[must_use]
    pub fn close_timeout(mut self, timeout: Duration) -> Self {
        self.close_timeout = Some(timeout);
        self
    }

    /// Sets the worker count of the parallel runtime driving EA ballot
    /// derivation, trustee share processing, and the audit sweep.
    ///
    /// Default: the `DDEMOS_THREADS` environment variable if set, else the
    /// machine's available parallelism. Election artifacts are
    /// byte-identical for every thread count (per-ballot derivation is
    /// independently seeded and the executor preserves input order).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the number of vote collector nodes (`Nv`).
    #[must_use]
    pub fn vc_nodes(mut self, n: usize) -> Self {
        self.params.num_vc = n;
        self
    }

    /// Sets the number of bulletin board replicas (`Nb`).
    #[must_use]
    pub fn bb_nodes(mut self, n: usize) -> Self {
        self.params.num_bb = n;
        self
    }

    /// Sets the number of trustees (`Nt`) and the reconstruction
    /// threshold (`h_t`).
    #[must_use]
    pub fn trustees(mut self, count: usize, threshold: usize) -> Self {
        self.params.num_trustees = count;
        self.params.trustee_threshold = threshold;
        self
    }

    /// Sets the number of options `m` (labels are regenerated).
    #[must_use]
    pub fn options(mut self, m: usize) -> Self {
        self.params.num_options = m;
        self.params.option_labels = (0..m).map(|i| format!("option-{i}")).collect();
        self
    }

    /// Sets the registered electorate size `n`.
    #[must_use]
    pub fn ballots(mut self, n: u64) -> Self {
        self.params.num_ballots = n;
        self
    }

    /// Sets the EA master seed (every key, code, and commitment derives
    /// from it deterministically).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the transport: a simulated-network latency/loss profile
    /// ([`NetworkProfile`] converts implicitly), or [`Network::Tcp`] for
    /// a real multi-process deployment over sockets.
    #[must_use]
    pub fn network(mut self, network: impl Into<Network>) -> Self {
        self.network = network.into();
        self
    }

    /// Attaches step-trace recorders to VC nodes positionally (node 0,
    /// 1, …): every `(input, now_ms, outputs)` triple of node `i`'s
    /// sans-I/O core is recorded into `traces[i]`, byte-encoded — the
    /// instrument `tests/determinism.rs` uses to prove core behavior is
    /// driver-independent. Shorter vectors leave the remaining nodes
    /// untraced.
    #[must_use]
    pub fn vc_traces(mut self, traces: impl IntoIterator<Item = StepTrace>) -> Self {
        self.traces = traces.into_iter().collect();
        self
    }

    /// Selects the ballot store backing each VC node.
    #[must_use]
    pub fn store(mut self, kind: StoreKind) -> Self {
        self.store = kind;
        self
    }

    /// Materializes only what the vote-collection phase needs — skips the
    /// BB cryptographic payloads and trustee shares (the Fig 4/5a/5b
    /// benchmark setup; the close/tally/audit phases are unavailable).
    #[must_use]
    pub fn vc_only(mut self) -> Self {
        self.profile = SetupProfile::VcOnly;
        self
    }

    /// Makes one VC node Byzantine.
    #[must_use]
    pub fn adversary(mut self, node: NodeId, behavior: VcBehavior) -> Self {
        self.adversaries.push((node, behavior));
        self
    }

    /// Arms a state-triggered Byzantine profile on one VC node: the node
    /// follows the protocol until the adversary's predicate over
    /// *observed* state fires (see [`TriggeredAdversary`]). Composes
    /// with — and is independent of — the static
    /// [`ElectionBuilder::adversary`] behaviours.
    #[must_use]
    pub fn triggered_adversary(mut self, node: NodeId, adversary: TriggeredAdversary) -> Self {
        self.triggered.push((node, adversary));
        self
    }

    /// Makes one BB replica's reads diverge once it has accepted the
    /// first finalized vote set (the adaptive Byzantine board the
    /// read-side `fb+1` majority must outvote).
    #[must_use]
    pub fn bb_diverges_after_finalized(mut self, bb_index: u32) -> Self {
        self.bb_divergent.push(bb_index);
        self
    }

    /// Journals VC/BB state on disks drawn from (and returned to) a
    /// shared [`crate::campaign::DiskPool`] instead of fresh
    /// [`SimDisk`]s — the carried-over durable state of sequential
    /// campaign elections. Only meaningful with [`Durability::Sim`].
    #[must_use]
    pub fn disk_pool(mut self, pool: Arc<crate::campaign::DiskPool>) -> Self {
        self.disk_pool = Some(pool);
        self
    }

    /// Sets VC behaviours positionally (node 0, 1, …); shorter vectors are
    /// padded with [`VcBehavior::Honest`], longer ones are rejected at
    /// `build()` with [`BuildError::BadNode`]. Composes with
    /// [`ElectionBuilder::adversary`], which wins on conflict.
    #[must_use]
    pub fn vc_behaviors(mut self, behaviors: impl IntoIterator<Item = VcBehavior>) -> Self {
        self.behaviors = behaviors.into_iter().collect();
        self
    }

    /// Gives one VC node's internal clock a fixed drift (Assumption II's
    /// `Δ` bound, in signed milliseconds).
    #[must_use]
    pub fn clock_drift(mut self, node: NodeId, drift_ms: i64) -> Self {
        self.node_drifts.push((node, drift_ms));
        self
    }

    /// Sets VC clock drifts positionally (milliseconds; shorter vectors are
    /// padded with zero, longer ones are rejected at `build()` with
    /// [`BuildError::BadNode`]).
    #[must_use]
    pub fn clock_drifts(mut self, drifts_ms: impl IntoIterator<Item = i64>) -> Self {
        self.drifts_ms = drifts_ms.into_iter().collect();
        self
    }

    /// Materializes only the first `k` serials' ballots and VC rows; the
    /// stores still report the full registered electorate. This is how the
    /// scalability benchmarks model a 250M-row database of which only the
    /// cast range is touched. Implies the restrictions of
    /// [`BuildError::PartialSetupRequiresVcOnly`].
    #[must_use]
    pub fn materialize_first(mut self, k: u64) -> Self {
        self.materialize_first = Some(k);
        self
    }

    /// Registers a setup corruption applied after EA setup and before any
    /// node starts — the malicious-EA attacks of §IV-C (see
    /// [`crate::adversary`]).
    #[must_use]
    pub fn corrupt_setup(mut self, f: impl FnOnce(&mut SetupOutput) + 'static) -> Self {
        self.corruptions.push(Box::new(f));
        self
    }

    /// Runs EA setup and starts every long-lived component.
    ///
    /// # Errors
    /// See [`BuildError`].
    pub fn build(self) -> Result<Election, BuildError> {
        self.params.validate()?;
        if let Network::Tcp(cluster) = &self.network {
            let cluster = cluster.clone();
            return self.build_tcp(cluster);
        }
        let num_vc = self.params.num_vc;

        // Merge positional and per-node behaviours / drifts. Over-length
        // positional vectors name a node that does not exist — reject them
        // like the per-node setters do rather than silently truncating.
        let mut behaviors = self.behaviors;
        if behaviors.len() > num_vc {
            return Err(BuildError::BadNode(NodeId::vc(num_vc as u32)));
        }
        behaviors.resize(num_vc, VcBehavior::Honest);
        for (node, behavior) in &self.adversaries {
            if node.kind != NodeKind::Vc || node.index as usize >= num_vc {
                return Err(BuildError::BadNode(*node));
            }
            behaviors[node.index as usize] = *behavior;
        }
        let mut triggered: Vec<Option<TriggeredAdversary>> = vec![None; num_vc];
        for (node, adversary) in &self.triggered {
            if node.kind != NodeKind::Vc || node.index as usize >= num_vc {
                return Err(BuildError::BadNode(*node));
            }
            triggered[node.index as usize] = Some(adversary.clone());
        }
        for &bb in &self.bb_divergent {
            if bb as usize >= self.params.num_bb {
                return Err(BuildError::BadNode(NodeId::bb(bb)));
            }
        }
        let mut drifts = self.drifts_ms;
        if drifts.len() > num_vc {
            return Err(BuildError::BadNode(NodeId::vc(num_vc as u32)));
        }
        drifts.resize(num_vc, 0);
        if self.traces.len() > num_vc {
            return Err(BuildError::BadNode(NodeId::vc(num_vc as u32)));
        }
        for (node, drift) in &self.node_drifts {
            if node.kind != NodeKind::Vc || node.index as usize >= num_vc {
                return Err(BuildError::BadNode(*node));
            }
            drifts[node.index as usize] = *drift;
        }

        // EA setup. Partial materialization (an explicit cast range, or a
        // virtual store that derives rows on demand) builds on the
        // keys-only profile; everything else materializes eagerly.
        let is_virtual = matches!(self.store, StoreKind::Virtual);
        let partial = self.materialize_first.is_some() || is_virtual;
        if partial && self.profile == SetupProfile::Full {
            return Err(BuildError::PartialSetupRequiresVcOnly);
        }
        let pool = match self.threads {
            Some(n) => Pool::new(n),
            None => Pool::from_env(),
        };
        // A profiling run times the crypto layers through the
        // process-global hook; installed before set-up so the EA's
        // per-ballot stages (`ea.setup_ns`) land in the same ledger.
        let global_recorder = if self.profiling {
            let hook = Recorder::wall();
            ddemos_obs::install_global(hook.clone());
            Some(hook)
        } else {
            None
        };
        // lint:allow(wall-clock, wall-clock setup timing reported to the operator; never reaches a core)
        let setup_started = std::time::Instant::now();
        let ea = ElectionAuthority::new(self.params.clone(), self.seed);
        let mut setup = if partial {
            // Virtual stores derive VC rows on demand, so only printed
            // voter ballots are materialized — and none by default: at the
            // electorate sizes virtual stores exist for (250M), deriving
            // every ballot eagerly would defeat the point. Callers name
            // the cast range with `materialize_first`.
            // An absent cast range only reaches here for virtual stores
            // (partial requires materialize_first or a virtual store), and
            // at the electorate sizes those exist for nothing should be
            // derived eagerly.
            let materialize = self
                .materialize_first
                .unwrap_or(0)
                .min(self.params.num_ballots);
            let mut setup = ea.setup_keys_only();
            let vc_rows = if is_virtual { 0 } else { num_vc };
            let per_ballot = derive_cast_range(&ea, materialize, vc_rows, &pool);
            let mut ballots = Vec::with_capacity(per_ballot.len());
            for (ballot, node_rows) in per_ballot {
                for (node, rows) in node_rows.into_iter().enumerate() {
                    setup.vc_inits[node].ballots.insert(ballot.serial, rows);
                }
                ballots.push(ballot);
            }
            ballots.sort_by_key(|b| b.serial);
            setup.ballots = ballots;
            setup
        } else {
            ea.setup_with(self.profile, &pool)
        };
        let setup_elapsed = setup_started.elapsed();
        for corruption in self.corruptions {
            corruption(&mut setup);
        }
        // The EA is destroyed after setup (§III-B) unless a virtual store
        // needs its derivation function as the stand-in database.
        let ea = if is_virtual { Some(Arc::new(ea)) } else { None };

        let net_seed = self.seed ^ 0x4E45_5457_4F52_4B21;
        let net_profile = match &self.network {
            Network::Sim(profile) => profile.clone(),
            Network::Tcp(_) => unreachable!("tcp handled above"),
        };
        let (net, clock, driver) = if self.virtual_time {
            let vclock = VirtualClock::new();
            vclock.set_limit_ns(
                self.params
                    .end_ms
                    .saturating_add(VIRTUAL_LIMIT_MARGIN_MS)
                    .saturating_mul(NS_PER_MS),
            );
            let clock = GlobalClock::new_virtual(vclock.clone());
            let net = SimNet::new_virtual(net_profile, net_seed, vclock.clone());
            // Register the building thread as the driver actor *before*
            // any node spawns: virtual time cannot advance until the
            // driver blocks, so the start state is identical run to run.
            let driver = vclock.register_actor();
            (net, clock, Some(driver))
        } else {
            (SimNet::new(net_profile, net_seed), GlobalClock::new(), None)
        };
        // Scheduled SetDrift faults write through the registry in both
        // time modes (real-time drift experiments included).
        net.set_drift_registry(clock.drift_registry());
        // BB replicas have no network inbox, so a CrashAmnesia fault
        // reaches them through this hook: the index is flagged here and
        // serviced (state reset + journal replay) by the Election before
        // its next BB interaction. Registered before any fault can fire.
        let bb_amnesia: Arc<Mutex<BTreeSet<u32>>> = Arc::new(Mutex::new(BTreeSet::new()));
        {
            let flags = bb_amnesia.clone();
            net.set_amnesia_hook(Arc::new(move |id| {
                if id.kind == NodeKind::Bb {
                    flags.lock().insert(id.index);
                }
            }));
        }
        for (at_ms, fault) in &self.schedule.events {
            net.schedule_fault(Duration::from_millis(*at_ms), fault.clone());
        }
        // Per-node metrics recorders, created in node order (vc-0…,
        // bb-0…, then the profiling hook); report() merges their
        // snapshots in this same fixed order. Default metrics charge
        // time on the election clock — deterministic virtual nanoseconds
        // under virtual_time(). Profiling overrides the source with real
        // monotonic time (its process-global crypto hook is already
        // installed, above).
        let metrics_domain = if self.virtual_time {
            TimeDomain::Virtual
        } else {
            TimeDomain::Wall
        };
        let new_recorder = || {
            if self.profiling {
                Recorder::wall()
            } else if self.metrics {
                Recorder::new(metrics_domain, Box::new(ClockSource(clock.clone())))
            } else {
                Recorder::disabled()
            }
        };
        let vc_recorders: Vec<Recorder> = (0..num_vc).map(|_| new_recorder()).collect();
        let bb_recorders: Vec<Recorder> = (0..self.params.num_bb).map(|_| new_recorder()).collect();

        let storage_err = |e: StorageError| BuildError::Storage(e.to_string());
        let journal_config = self.journal_config;
        let durability = self.durability.clone();
        let disk_pool = self.disk_pool.clone();
        let make_journal = {
            let clock = clock.clone();
            move |label: String| -> Result<Option<DynJournal>, BuildError> {
                match &durability {
                    Durability::None => Ok(None),
                    Durability::Sim(profile) => {
                        // A campaign pool hands back the *same* disk it
                        // gave the previous election under this label —
                        // its wear counters and fault state (a still-full
                        // device!) carry over; only the clock is
                        // re-pointed at this election.
                        let disk: DynDisk = match &disk_pool {
                            Some(pool) => pool.disk(&label, clock.clone(), *profile),
                            None => Arc::new(SimDisk::new(clock.clone(), *profile)),
                        };
                        Ok(Some(Journal::new(disk, journal_config)))
                    }
                    Durability::File(dir) => {
                        let disk: DynDisk =
                            Arc::new(FileDisk::open(dir.join(label)).map_err(storage_err)?);
                        Ok(Some(Journal::new(disk, journal_config)))
                    }
                }
            }
        };
        let (result_tx, result_rx) = crossbeam_channel::unbounded();
        let n = self.params.num_ballots;
        let mut vc_handles: Vec<VcHandle> = Vec::with_capacity(num_vc);
        for init in &mut setup.vc_inits {
            let i = init.node_index;
            let endpoint = net.register(NodeId::vc(i));
            let config = VcNodeConfig {
                behavior: behaviors[i as usize],
                poll: if self.virtual_time {
                    VIRTUAL_POLL
                } else {
                    VcNodeConfig::default().poll
                },
                trace: self.traces.get(i as usize).cloned(),
                adversary: triggered[i as usize].clone(),
                recorder: vc_recorders[i as usize].clone(),
            };
            let node_clock = clock.node_clock_keyed(NodeId::vc(i).clock_key(), drifts[i as usize]);
            let beacon = setup.consensus_beacon;
            let tx = result_tx.clone();
            let mut journal = make_journal(format!("vc-{i}"))?;
            if let Some(j) = journal.as_mut() {
                j.set_recorder(vc_recorders[i as usize].clone());
            }
            // The rows move into the node's store; the retained init copies
            // stay empty (each node is handed its data exactly once).
            let rows = MemoryStore::new(std::mem::take(&mut init.ballots), n);
            let store: Box<dyn BallotStore> = match self.store {
                StoreKind::Memory => Box::new(rows),
                StoreKind::Latency(model) => {
                    Box::new(LatencyStore::with_clock(rows, model, clock.clone()))
                }
                StoreKind::Virtual => {
                    Box::new(virtual_store(ea.clone().expect("ea retained"), i, n))
                }
            };
            let handle = ddemos_vc::node::spawn(
                init.clone(),
                store,
                Box::new(endpoint),
                node_clock,
                beacon,
                config,
                DeliverTarget::Channel(tx),
                journal,
            );
            vc_handles.push(handle);
        }

        if let Some(vclock) = clock.virtual_clock() {
            // Start barrier: every node must be registered before the
            // first advancement step, or the initial event order would
            // depend on thread start-up timing. A timeout here would
            // silently void the seed-determinism guarantee, so it is a
            // hard failure even in release builds.
            assert!(
                vclock.wait_for_registered(num_vc + 1, Duration::from_secs(30)),
                "vc nodes failed to register with the virtual clock within 30s"
            );
        }

        let bb_nodes: Vec<Arc<BbNode>> = (0..setup.params.num_bb)
            .map(|_| Arc::new(BbNode::new(setup.bb_init.clone())))
            .collect();
        for &bb in &self.bb_divergent {
            bb_nodes[bb as usize].set_diverge_after_finalized(true);
        }
        for (b, bb) in bb_nodes.iter().enumerate() {
            bb.set_recorder(bb_recorders[b].clone());
        }
        if self.durability.enabled() {
            for (b, bb) in bb_nodes.iter().enumerate() {
                let mut journal = make_journal(format!("bb-{b}"))?.expect("durability enabled");
                journal.set_recorder(bb_recorders[b].clone());
                bb.attach_journal(journal).map_err(storage_err)?;
            }
        }
        let bb_apis: Vec<Arc<dyn BbApi>> = bb_nodes
            .iter()
            .map(|node| node.clone() as Arc<dyn BbApi>)
            .collect();
        let reader = MajorityReader::over(bb_apis.clone()).with_clock(clock.clone());
        let trustees: Vec<Trustee> = setup
            .trustee_inits
            .iter()
            .cloned()
            .map(|init| Trustee::new(init).with_threads(pool.threads()))
            .collect();

        let run = RunState {
            timings: crate::election::PhaseTimings {
                setup: setup_elapsed,
                ..Default::default()
            },
            ..Default::default()
        };
        Ok(Election {
            setup,
            net: NetBackend::Sim(net),
            clock,
            bb_nodes,
            bb_apis,
            reader,
            trustees,
            vc_handles,
            result_rx,
            seed: self.seed,
            store: self.store,
            profile: self.profile,
            threads: pool.threads(),
            close_timeout: self.close_timeout.unwrap_or(Duration::from_secs(120)),
            next_client: AtomicU32::new(0),
            cast_seq: AtomicU64::new(0),
            run: Mutex::new(run),
            close_lock: Mutex::new(()),
            bb_amnesia,
            recorders: vc_recorders
                .into_iter()
                .chain(bb_recorders)
                .chain(global_recorder)
                .collect(),
            metrics_domain,
            profiling: self.profiling,
            _driver: driver,
            _ea: ea,
        })
    }

    /// The [`Network::Tcp`] build path: the coordinator of a
    /// multi-process cluster. No node is spawned here — VC and BB
    /// replicas are separate OS processes running
    /// [`crate::tcp::run_vc_replica`] / [`crate::tcp::run_bb_replica`]
    /// with the same `(params, seed)`; the builder derives the identical
    /// setup (ballots for voters, BB init for the auditor, trustee
    /// inits), prepares the coordinator's dial-out transport, and wires
    /// the phase handles to remote clients.
    fn build_tcp(self, cluster: TcpCluster) -> Result<Election, BuildError> {
        // Options that configure in-process nodes or the simulated
        // network cannot reach replicas living in other processes.
        let unsupported: &[(&'static str, bool)] = &[
            ("virtual time", self.virtual_time),
            ("fault schedules", !self.schedule.events.is_empty()),
            (
                "durability control",
                !matches!(self.durability, Durability::None),
            ),
            (
                "vc_only / custom setup profiles",
                self.profile != SetupProfile::Full,
            ),
            ("partial materialization", self.materialize_first.is_some()),
            ("setup corruption", !self.corruptions.is_empty()),
            (
                "adversarial behaviors",
                !self.behaviors.is_empty()
                    || !self.adversaries.is_empty()
                    || !self.triggered.is_empty()
                    || !self.bb_divergent.is_empty(),
            ),
            ("campaign disk pools", self.disk_pool.is_some()),
            // Replica-side recorders live in other processes; only the
            // transport's connection counters reach the coordinator.
            ("wall-clock profiling", self.profiling),
            (
                "clock drifts",
                !self.drifts_ms.is_empty() || !self.node_drifts.is_empty(),
            ),
            (
                "non-memory ballot stores",
                !matches!(self.store, StoreKind::Memory),
            ),
            ("step traces", !self.traces.is_empty()),
        ];
        if let Some((what, _)) = unsupported.iter().find(|(_, set)| *set) {
            return Err(BuildError::TcpUnsupported(what));
        }
        if cluster.vc_addrs.len() != self.params.num_vc
            || cluster.bb_addrs.len() != self.params.num_bb
        {
            return Err(BuildError::TcpUnsupported(
                "a cluster sized differently from the election parameters",
            ));
        }
        let pool = match self.threads {
            Some(n) => Pool::new(n),
            None => Pool::from_env(),
        };
        // lint:allow(wall-clock, wall-clock setup timing reported to the operator; never reaches a core)
        let setup_started = std::time::Instant::now();
        let ea = ElectionAuthority::new(self.params.clone(), self.seed);
        let setup = ea.setup_with(SetupProfile::Full, &pool);
        let setup_elapsed = setup_started.elapsed();
        let backend = TcpBackend::connect(cluster, self.seed);
        let bb_apis = backend.bb_clients();
        let reserved_clients = backend.reserved_clients();
        let reader = MajorityReader::over(bb_apis.clone());
        let trustees: Vec<Trustee> = setup
            .trustee_inits
            .iter()
            .cloned()
            .map(|init| Trustee::new(init).with_threads(pool.threads()))
            .collect();
        // The in-process result channel stays empty: finalized sets
        // arrive as Msg::Finalized envelopes on the control endpoint.
        let (_result_tx, result_rx) = crossbeam_channel::unbounded();
        let run = RunState {
            timings: crate::election::PhaseTimings {
                setup: setup_elapsed,
                ..Default::default()
            },
            ..Default::default()
        };
        Ok(Election {
            setup,
            net: NetBackend::Tcp(backend),
            clock: GlobalClock::new(),
            bb_nodes: Vec::new(),
            bb_apis,
            reader,
            trustees,
            vc_handles: Vec::new(),
            result_rx,
            seed: self.seed,
            store: self.store,
            profile: self.profile,
            threads: pool.threads(),
            close_timeout: self.close_timeout.unwrap_or(Duration::from_secs(120)),
            next_client: AtomicU32::new(reserved_clients),
            cast_seq: AtomicU64::new(0),
            run: Mutex::new(run),
            close_lock: Mutex::new(()),
            bb_amnesia: Arc::new(Mutex::new(BTreeSet::new())),
            recorders: Vec::new(),
            metrics_domain: TimeDomain::Wall,
            profiling: false,
            _driver: None,
            _ea: None,
        })
    }
}

/// Derives voter ballots and per-node VC rows for serials `0..k` on the
/// builder's executor (derivation is deterministic per serial and the pool
/// preserves order, so results are independent of the thread count).
fn derive_cast_range(
    ea: &ElectionAuthority,
    k: u64,
    num_vc: usize,
    pool: &Pool,
) -> Vec<(Ballot, Vec<ddemos_protocol::initdata::VcBallot>)> {
    let serials: Vec<u64> = (0..k).collect();
    pool.map(&serials, |&s| {
        let serial = SerialNo(s);
        (ea.voter_ballot(serial), ea.vc_ballots(serial, 0..num_vc))
    })
}

/// A PRF-backed virtual store: rows derived on demand from the retained
/// EA derivation state (the stand-in for a node's pre-populated database).
fn virtual_store(
    ea: Arc<ElectionAuthority>,
    node: u32,
    n: u64,
) -> FnStore<impl Fn(SerialNo) -> Option<ddemos_protocol::initdata::VcBallot> + Send + Sync> {
    let node = node as usize;
    FnStore::new(n, move |serial| ea.vc_ballots(serial, node..node + 1).pop())
}
