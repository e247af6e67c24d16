//! The running [`Election`] facade and its typed phase handles.

use crate::builder::StoreKind;
use crate::report::{ElectionReport, NetReport};
use crate::workload::{Workload, WorkloadStats};
use crossbeam_channel::RecvTimeoutError;
use ddemos::auditor::{AuditReport, Auditor};
use ddemos::voter::{VoteError, VoteRecord, Voter};
use ddemos_bb::{BbSnapshot, MajorityReader};
use ddemos_ea::{ElectionAuthority, SetupOutput};
use ddemos_net::{AuthTransport, DynEndpoint, NetStats, SimNet};
use ddemos_obs::{MetricsSnapshot, Recorder, TimeDomain};
use ddemos_protocol::ballot::AuditInfo;
use ddemos_protocol::clock::{ActorGuard, GlobalClock};
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::posts::ElectionResult;
use ddemos_protocol::{NodeId, NodeKind, PartId, SerialNo};
use ddemos_trustee::{Trustee, TrusteeError};
use ddemos_vc::{FinalizedVoteSet, VcHandle};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The transport behind a running election: the in-process simulated
/// network, or the coordinator side of a multi-process TCP cluster.
///
/// One instance exists per election, so the size skew between the two
/// variants is irrelevant.
#[allow(clippy::large_enum_variant)]
pub(crate) enum NetBackend {
    /// In-process simulation (latency emulation, faults, virtual time).
    Sim(SimNet),
    /// Coordinator of remote replicas over TCP sockets, and the
    /// transport of the trustee nodes, which run in its process but are
    /// parties of their own.
    Tcp {
        coordinator: AuthTransport,
        trustees: AuthTransport,
    },
}

impl NetBackend {
    fn stats(&self) -> &NetStats {
        match self {
            NetBackend::Sim(net) => net.stats(),
            NetBackend::Tcp { coordinator, .. } => coordinator.stats(),
        }
    }

    /// An endpoint for `id` (a socket endpoint's loop cannot be created
    /// off Linux). Over TCP a trustee's is on the trustees' transport.
    pub(crate) fn register(&self, id: NodeId) -> std::io::Result<DynEndpoint> {
        match self {
            NetBackend::Sim(net) => Ok(Box::new(net.register(id))),
            NetBackend::Tcp { trustees, .. } if id.kind == NodeKind::Trustee => {
                Ok(Box::new(trustees.register(id)?))
            }
            NetBackend::Tcp { coordinator, .. } => Ok(Box::new(coordinator.register(id)?)),
        }
    }

    /// Connection counters of the authenticated-channel transport
    /// (`None` on the simulated network).
    fn conn_counters(&self) -> Option<ddemos_net::evloop::EvStats> {
        match self {
            NetBackend::Sim(_) => None,
            NetBackend::Tcp { coordinator, .. } => Some(coordinator.conn_counters()),
        }
    }

    fn shutdown(&self) {
        match self {
            NetBackend::Sim(net) => net.shutdown(),
            NetBackend::Tcp {
                coordinator,
                trustees,
            } => {
                coordinator.shutdown();
                trustees.shutdown();
            }
        }
    }
}

/// How long, in the network's time base, [`Election::close`] waits for a
/// collector's finalized vote set, or for the board to show the
/// encrypted tally, before sending `ClosePolls` again.
const CLOSE_RETRY: Duration = Duration::from_secs(1);
/// Client ids below this are the election's own: [`crate::COORDINATOR`]
/// (client 0) and its endpoint to the board (client 1). Voters and load
/// connections are numbered from here.
pub(crate) const RESERVED_CLIENTS: u32 = 2;

/// How long shutting down waits for the replicas to close their ends of
/// the coordinator's connections.
pub(crate) const SHUTDOWN_PATIENCE: Duration = Duration::from_secs(1);
/// How long [`Election::close`] waits for a BB majority to hold the
/// encrypted tally challenge once the collectors have finalized.
const BB_PUBLISH_TIMEOUT: Duration = Duration::from_secs(60);
/// How long [`Election::tally`] waits for the published result.
const RESULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Orchestration errors surfaced by the phase handles.
#[derive(Debug)]
pub enum ElectionError {
    /// Not enough VC nodes finalized a vote set in time.
    VoteSetTimeout,
    /// The BB majority never published the expected artifact.
    BbTimeout(&'static str),
    /// More than `N_t − h_t` trustee nodes ended in an error, so the
    /// result cannot be published; the first of their errors.
    TrusteesFailed(TrusteeError),
    /// The phase needs state an earlier phase produces (e.g. `tally`
    /// before `close`), or setup data a [`crate::ElectionBuilder::vc_only`]
    /// election never materialized.
    PhaseUnavailable(&'static str),
}

impl std::fmt::Display for ElectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectionError::VoteSetTimeout => write!(f, "vote-set consensus did not finish"),
            ElectionError::BbTimeout(what) => {
                write!(f, "bulletin board never published {what}")
            }
            ElectionError::PhaseUnavailable(why) => write!(f, "phase unavailable: {why}"),
            ElectionError::TrusteesFailed(e) => write!(f, "too many trustees failed, first: {e}"),
        }
    }
}
impl std::error::Error for ElectionError {}

/// Durations of each phase (Fig 5c's series), measured on the election's
/// clock: wall time by default, **virtual milliseconds** under
/// [`crate::ElectionBuilder::virtual_time`] — so Fig 5c numbers keep
/// matching the paper's emulated latencies however fast the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// EA setup inside [`crate::ElectionBuilder::build`] (key generation
    /// plus ballot materialization on the configured thread count).
    pub setup: Duration,
    /// Casting votes (accumulated over every [`VotingPhase`] call).
    pub vote_collection: Duration,
    /// ANNOUNCE + batched binary consensus + RECOVER.
    pub vote_set_consensus: Duration,
    /// From the finalized quorum to the encrypted tally on the board: the
    /// collectors' writes, msk reconstruction, code decryption.
    pub push_to_bb_and_tally: Duration,
    /// Trustee posts and result publication.
    pub publish_result: Duration,
}

/// Mutable run state accumulated across the phases.
#[derive(Default)]
pub(crate) struct RunState {
    pub(crate) audits: Vec<AuditInfo>,
    pub(crate) receipts: Vec<(SerialNo, u64)>,
    pub(crate) workload: Option<WorkloadStats>,
    pub(crate) timings: PhaseTimings,
    /// Vote sets the coordinator has collected, one a collector: a
    /// timed-out `close()` resumes from them.
    pub(crate) drained: Vec<FinalizedVoteSet>,
    pub(crate) finalized: Option<Vec<FinalizedVoteSet>>,
    /// Whether the board has shown the encrypted tally's challenge.
    pub(crate) published: bool,
    pub(crate) result: Option<ElectionResult>,
    /// The errors of the trustee nodes [`Election::tally`] has joined.
    pub(crate) trustee_errors: Vec<TrusteeError>,
    pub(crate) audit_report: Option<AuditReport>,
}

/// A trustee node's thread, ending in what its post came to.
type TrusteeNode = JoinHandle<Result<(), TrusteeError>>;

/// A running election: the EA's setup output plus every long-lived
/// component — simulated network, global clock, VC cluster, BB replicas,
/// and, once the polls close, one node per trustee. Built by
/// [`crate::ElectionBuilder`]; driven
/// through the typed phase handles ([`Election::voting`],
/// [`Election::close`], [`Election::tally`], [`Election::audit`]) or all
/// at once via [`Election::finish`].
pub struct Election {
    /// The EA's setup output (printed ballots retained for voters and
    /// auditors, exactly as the paper distributes them out of band).
    pub setup: SetupOutput,
    pub(crate) net: NetBackend,
    pub(crate) clock: GlobalClock,
    /// The majority reader over one client of each BB replica, all on one
    /// endpoint; the replicas serve envelopes on the election's
    /// transport, in process or in other processes.
    pub(crate) reader: MajorityReader,
    /// The trustee nodes the first [`Election::close_polls`] starts;
    /// `None` once [`Election::tally`] has joined one that ended.
    pub(crate) trustee_nodes: Mutex<Vec<Option<TrusteeNode>>>,
    /// The in-process VC node threads (none over TCP), joined as the
    /// election drops, after the network under them has shut down.
    pub(crate) _vc_handles: Vec<VcHandle>,
    /// The in-process BB replica threads (none over TCP), joined after
    /// the network shuts down too.
    pub(crate) bb_threads: Vec<std::thread::JoinHandle<()>>,
    /// The [`crate::COORDINATOR`] endpoint on the election's transport: it
    /// closes the polls, collects the finalized vote sets and stops the
    /// replicas. The coordinator writes nothing to the board.
    pub(crate) coordinator: Mutex<DynEndpoint>,
    pub(crate) seed: u64,
    pub(crate) store: StoreKind,
    pub(crate) profile: ddemos_ea::SetupProfile,
    pub(crate) threads: usize,
    /// Wall-clock bound on the [`Election::close`] vote-set drain.
    pub(crate) close_timeout: Duration,
    pub(crate) next_client: AtomicU32,
    pub(crate) cast_seq: AtomicU64,
    pub(crate) run: Mutex<RunState>,
    /// Serializes [`Election::close`], so one closer collects, caches and
    /// publishes the vote sets.
    pub(crate) close_lock: Mutex<()>,
    /// Per-node metrics recorders in fixed merge order (vc-0…, bb-0…,
    /// then the profiling hook if installed). Empty when metrics are off
    /// or the nodes live in other processes (TCP coordinator).
    pub(crate) recorders: Vec<Recorder>,
    /// Domain the merged report snapshot starts in (virtual elections
    /// stay [`TimeDomain::Virtual`] unless a wall recorder taints them).
    pub(crate) metrics_domain: TimeDomain,
    /// Whether this election installed the process-global profiling
    /// hook (cleared again on drop).
    pub(crate) profiling: bool,
    /// Virtual-time driver registration of the building thread (`None`
    /// for real-time elections). Held so virtual time freezes while the
    /// driver is doing work between waits.
    pub(crate) _driver: Option<ActorGuard>,
    /// Retained only for [`StoreKind::Virtual`] stores (the stand-in for
    /// each node's pre-populated database); `None` otherwise — the EA is
    /// destroyed after setup (§III-B).
    pub(crate) _ea: Option<Arc<ElectionAuthority>>,
}

impl Drop for Election {
    fn drop(&mut self) {
        // Every replica stops on the coordinator's Shutdown, and every
        // party once the network shuts down under it: under a virtual
        // clock that is what wakes nodes blocked in virtual waits. The BB
        // and trustee threads are joined here, the VC threads as
        // `_vc_handles` drops.
        let params = &self.setup.params;
        let coordinator = self.coordinator.lock();
        let vcs = (0..params.num_vc as u32).map(NodeId::vc);
        for replica in vcs.chain((0..params.num_bb as u32).map(NodeId::bb)) {
            coordinator.send(replica, Msg::Shutdown);
        }
        coordinator.close(SHUTDOWN_PATIENCE);
        self.net.shutdown();
        for thread in self.bb_threads.drain(..) {
            let _ = thread.join();
        }
        for node in self.trustee_nodes.lock().drain(..).flatten() {
            let _ = node.join();
        }
        if self.profiling {
            ddemos_obs::clear_global();
        }
    }
}

impl std::fmt::Debug for Election {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Election")
            .field("election_id", &self.setup.params.election_id)
            .field("num_vc", &self.setup.params.num_vc)
            .field("num_bb", &self.setup.params.num_bb)
            .field("num_trustees", &self.setup.params.num_trustees)
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

impl Election {
    // ------------------------------------------------------------------
    // Phase handles
    // ------------------------------------------------------------------

    /// The voting phase: cast individual votes or drive bulk workloads.
    /// Receipts and audit data accumulate inside the election for the
    /// audit phase and the final report.
    pub fn voting(&self) -> VotingPhase<'_> {
        VotingPhase {
            election: self,
            patience: Duration::from_secs(5),
        }
    }

    /// Closes the polls on every VC node and waits for vote-set consensus
    /// to a quorum of [`FinalizedVoteSet`]s and (for full setups) for the
    /// encrypted tally challenge on a BB majority, which the collectors'
    /// own writes put there.
    ///
    /// The coordinator collects the collectors' `Msg::Finalized`
    /// envelopes. Until it has a quorum of sets and the challenge shows,
    /// it sends every collector `ClosePolls` again each [`CLOSE_RETRY`]:
    /// each answers by sending its set and its board writes again.
    ///
    /// Idempotent: once the pipeline has completed, later calls (e.g. a
    /// `finish()` after a manual `close()`) return the cached vote sets;
    /// after a failure, retrying resumes from whatever had already been
    /// collected.
    ///
    /// # Errors
    /// [`ElectionError::VoteSetTimeout`] or [`ElectionError::BbTimeout`].
    pub fn close(&self) -> Result<Vec<FinalizedVoteSet>, ElectionError> {
        // Serialized: one closer collects, caches and publishes.
        let _phase = self.close_lock.lock();
        let cached = self.run.lock().finalized.clone();
        let finalized = match cached {
            Some(finalized) => finalized,
            None => {
                self.close_polls();
                let pending =
                    self.drain_vote_sets(self.setup.params.vc_quorum(), self.close_timeout, true)?;
                // Cache before the fallible BB wait below: consensus has
                // completed. Consensus timing comes from the node-stamped
                // announce/finalize times — values produced inside the
                // simulation, so they replay identically under a virtual
                // clock (a driver-side clock sample here would race with
                // nodes still draining their last events).
                let announce = pending.iter().map(|f| f.announce_at_ms).min().unwrap_or(0);
                let finalized_at = pending
                    .iter()
                    .map(|f| f.finalized_at_ms)
                    .max()
                    .unwrap_or(announce);
                let mut state = self.run.lock();
                state.timings.vote_set_consensus +=
                    Duration::from_millis(finalized_at.saturating_sub(announce));
                state.finalized = Some(pending.clone());
                pending
            }
        };
        if self.is_full_setup() && !self.run.lock().published {
            // Unlike the consensus span above, this delta is safe to
            // sample driver-side even under a virtual clock: between the
            // two samples the driver only waits on BB round trips, whose
            // virtual latencies are seeded, and the read predicate is a
            // pure function of the writes — so the delta does not depend
            // on the racy absolute base.
            let t1 = self.clock.now_ns();
            while self
                .reader
                .read_until(CLOSE_RETRY, |s| s.challenge.is_some())
                .is_none()
            {
                if self.clock.now_ns().saturating_sub(t1) > BB_PUBLISH_TIMEOUT.as_nanos() as u64 {
                    return Err(ElectionError::BbTimeout("encrypted tally"));
                }
                Self::send_close_polls(&self.coordinator.lock(), self.setup.params.num_vc);
            }
            let mut state = self.run.lock();
            state.timings.push_to_bb_and_tally +=
                Duration::from_nanos(self.clock.now_ns().saturating_sub(t1));
            state.published = true;
        }
        Ok(finalized)
    }

    /// Majority-reads the board until the trustee nodes' posts have
    /// published the result. Requires [`Election::close`] to have
    /// completed. Idempotent: once a result is known, later calls return
    /// it without reading again or double-counting the publish timing.
    ///
    /// # Errors
    /// [`ElectionError::PhaseUnavailable`] before `close` or on a
    /// VC-only setup; [`ElectionError::TrusteesFailed`] as soon as more
    /// than `N_t − h_t` trustee nodes have ended in an error;
    /// [`ElectionError::BbTimeout`] when no result shows otherwise.
    pub fn tally(&self) -> Result<ElectionResult, ElectionError> {
        if !self.is_full_setup() {
            return Err(ElectionError::PhaseUnavailable(
                "tally requires SetupProfile::Full (not a vc_only election)",
            ));
        }
        {
            let state = self.run.lock();
            if let Some(result) = state.result.clone() {
                return Ok(result);
            }
            if state.finalized.is_none() {
                return Err(ElectionError::PhaseUnavailable(
                    "tally requires close() first",
                ));
            }
        }
        let t0 = self.clock.now_ns();
        let result = self
            .reader
            .read_until(RESULT_TIMEOUT, |s| {
                s.result.is_some() || self.trustees_failed().is_some()
            })
            .and_then(|s| s.result)
            .ok_or_else(|| {
                self.trustees_failed().map_or(
                    ElectionError::BbTimeout("result"),
                    ElectionError::TrusteesFailed,
                )
            })?;
        let mut state = self.run.lock();
        state.timings.publish_result +=
            Duration::from_nanos(self.clock.now_ns().saturating_sub(t0));
        state.result = Some(result.clone());
        Ok(result)
    }

    /// The first error a trustee node ended in, once more than
    /// `N_t − h_t` have ended in one: fewer than `h_t` posts can reach the
    /// board then. Joins the nodes that have ended.
    fn trustees_failed(&self) -> Option<TrusteeError> {
        let mut nodes = self.trustee_nodes.lock();
        let mut run = self.run.lock();
        for slot in nodes.iter_mut() {
            if slot.as_ref().is_some_and(JoinHandle::is_finished) {
                if let Some(Ok(Err(e))) = slot.take().map(JoinHandle::join) {
                    run.trustee_errors.push(e);
                }
            }
        }
        let params = &self.setup.params;
        let tolerated = params.num_trustees.saturating_sub(params.trustee_threshold);
        let failed = run.trustee_errors.len() > tolerated;
        run.trustee_errors.first().copied().filter(|_| failed)
    }

    /// Runs the audit: a majority read of the Bulletin Board, the public
    /// consistency checks, and — when votes were cast through the facade —
    /// the delegated per-voter checks over every collected
    /// [`AuditInfo`].
    ///
    /// # Errors
    /// [`ElectionError::BbTimeout`] when no BB majority agrees on a
    /// snapshot.
    pub fn audit(&self) -> Result<AuditReport, ElectionError> {
        let snapshot = self
            .reader
            .read_snapshot()
            .ok_or(ElectionError::BbTimeout("majority snapshot"))?;
        let mut state = self.run.lock();
        let auditor = Auditor::new(&self.setup.bb_init, &snapshot).with_threads(self.threads);
        let report = if state.audits.is_empty() {
            auditor.verify_public()
        } else {
            auditor.verify_delegated(&state.audits)
        };
        state.audit_report = Some(report.clone());
        Ok(report)
    }

    /// Convenience: `close` → `tally` → `audit` → [`Election::report`]
    /// (the tally and audit are skipped for VC-only setups).
    ///
    /// # Errors
    /// Propagates the first failing phase.
    pub fn finish(&self) -> Result<ElectionReport, ElectionError> {
        self.close()?;
        if self.is_full_setup() {
            self.tally()?;
            self.audit()?;
        }
        Ok(self.report())
    }

    /// Assembles the [`ElectionReport`] from everything accumulated so
    /// far: result, receipts, audit outcome, per-phase timings, and
    /// network/workload statistics.
    pub fn report(&self) -> ElectionReport {
        // Under a virtual clock, run the simulation dry — every
        // in-flight envelope delivered and processed, every node parked —
        // before freezing anything. Quiescing alone stops at a step
        // boundary, but which one depends on how far the free-running
        // clock got before this thread re-registered (a wall-clock race):
        // the straggler nodes beyond the close quorum would be cut off
        // mid-cascade at a nondeterministic event index, and the stable
        // step metrics would count a varying number of their deliveries.
        if let Some(vclock) = self.clock.virtual_clock() {
            vclock.run_dry(Duration::from_secs(5));
            vclock.quiesce(Duration::from_secs(5));
        }
        let state = self.run.lock();
        ElectionReport {
            result: state.result.clone(),
            receipts: state.receipts.clone(),
            audit: state.audit_report.clone(),
            timings: state.timings,
            net: NetReport::capture(self.net.stats()),
            metrics: self.metrics_snapshot(),
            workload: state.workload.clone(),
            store: self.store,
            threads: self.threads,
        }
    }

    /// Merges every node recorder (fixed vc-0…, bb-0…, hook order) and
    /// folds the transport's connection counters in as `net.conn.*`
    /// (with the largest frames read and written as gauges).
    /// The merge is exact — counters add, histograms add per bucket — so
    /// the result is independent of how the per-node snapshots group.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut metrics = MetricsSnapshot::new(self.metrics_domain);
        for recorder in &self.recorders {
            metrics.merge(&recorder.snapshot());
        }
        if let Some(conns) = self.net.conn_counters() {
            // Written unconditionally, zeros included: the presence of
            // the keys is what marks "this election ran over TCP" (see
            // `ElectionReport::metrics`).
            metrics.add("net.conn.dials", "", "", conns.dials);
            metrics.add("net.conn.authenticated", "", "", conns.authenticated);
            metrics.add("net.conn.auth_failed", "", "", conns.auth_failed);
            metrics.add("net.conn.rejected", "", "", conns.rejected);
            metrics.add("net.conn.retries", "", "", conns.retries);
            metrics.add("net.conn.closed", "", "", conns.closed);
            metrics.gauge("net.conn.largest_frame_in", "", "", conns.largest_frame_in);
            metrics.gauge(
                "net.conn.largest_frame_out",
                "",
                "",
                conns.largest_frame_out,
            );
        }
        metrics
    }

    /// The worker count of the parallel runtime (EA setup, trustee share
    /// processing, audit sweep).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Stops every replica and the network, and joins the node threads
    /// (what dropping the election does): the coordinator sends each
    /// replica `Shutdown`, and the network — in virtual mode the clock
    /// too — shuts down before the join, so node threads blocked in
    /// virtual waits are woken rather than joined against.
    pub fn shutdown(self) {
        drop(self);
    }

    // ------------------------------------------------------------------
    // Lower-level access (subsystem tests and custom drivers)
    // ------------------------------------------------------------------

    /// The election parameters.
    pub fn params(&self) -> &ddemos_protocol::ElectionParams {
        &self.setup.params
    }

    /// The simulated network (fault injection: crash, partition, profile).
    ///
    /// # Panics
    /// Panics for [`crate::Network::Tcp`] elections — real replicas are
    /// separate processes with no in-process fault hooks.
    pub fn network(&self) -> &SimNet {
        match &self.net {
            NetBackend::Sim(net) => net,
            NetBackend::Tcp { .. } => {
                panic!("the simulated network is only available for Network::Sim elections")
            }
        }
    }

    /// The global reference clock.
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Current simulation time in milliseconds (virtual ms under
    /// [`crate::ElectionBuilder::virtual_time`]).
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Sleeps `d` of simulation time — under a virtual clock this paces
    /// the scenario (lets scheduled faults and the voting window play out)
    /// at almost no wall-clock cost.
    pub fn sleep(&self, d: Duration) {
        self.clock.sleep(d);
    }

    /// The majority reader over the BB replicas.
    pub fn reader(&self) -> &MajorityReader {
        &self.reader
    }

    /// Majority-reads the current BB snapshot.
    pub fn snapshot(&self) -> Option<BbSnapshot> {
        self.reader.read_snapshot()
    }

    /// Registers a fresh client (voter terminal) endpoint on whichever
    /// transport the election runs over.
    ///
    /// # Panics
    /// Panics when the socket endpoint cannot be created.
    pub fn client_endpoint(&self) -> DynEndpoint {
        let id = NodeId::client(self.alloc_clients(1));
        self.net
            .register(id)
            .unwrap_or_else(|e| panic!("no socket endpoint for {id}: {e}"))
    }

    /// Reserves `count` fresh client ids, returning the first.
    pub(crate) fn alloc_clients(&self, count: u32) -> u32 {
        self.next_client.fetch_add(count, Ordering::SeqCst)
    }

    /// Closes the polls on every VC node (as if every clock passed
    /// `Tend`) without waiting for consensus — [`Election::close`] is the
    /// usual entry point — and, the first time, starts a
    /// [`ddemos_trustee::node`] per trustee for full setups.
    ///
    /// The coordinator sends each node `Msg::ClosePolls` — a control
    /// envelope replicas accept from [`crate::COORDINATOR`] alone — from a
    /// single pinned virtual instant, so the close cascade is a pure
    /// function of the seed.
    ///
    /// # Panics
    /// Panics when a trustee's endpoint or thread cannot be created.
    pub fn close_polls(&self) {
        Self::send_close_polls(&self.coordinator.lock(), self.setup.params.num_vc);
        let mut nodes = self.trustee_nodes.lock();
        if !nodes.is_empty() || !self.is_full_setup() {
            return;
        }
        let num_bb = self.setup.params.num_bb;
        let started = self.setup.trustee_inits.iter().map(|init| {
            let trustee = Trustee::new(init.clone()).with_threads(self.threads);
            let node = |ep| ddemos_trustee::node::spawn(trustee, ep, num_bb, &self.clock);
            let id = NodeId::trustee(init.index);
            (self.net.register(id).and_then(node))
                .unwrap_or_else(|e| panic!("no node for {id}: {e}"))
        });
        *nodes = started.map(Some).collect();
    }

    /// Sends all `num_vc` collectors `ClosePolls` from `coordinator`.
    fn send_close_polls(coordinator: &DynEndpoint, num_vc: usize) {
        // Pin the virtual clock so every close is stamped with the same
        // send time; arrival order is then decided by the seeded per-link
        // latencies alone.
        let _actor = coordinator.actor_guard();
        for i in 0..num_vc as u32 {
            coordinator.send(NodeId::vc(i), Msg::ClosePolls);
        }
    }

    /// Waits until at least `count` VC nodes have delivered their
    /// finalized vote sets to the coordinator (they do so after their
    /// clocks pass `Tend` or [`Election::close_polls`]). Sets collected
    /// by an earlier call count, and every set stays collected for
    /// [`Election::close`].
    ///
    /// # Errors
    /// [`ElectionError::VoteSetTimeout`] on expiry.
    pub fn await_vote_sets(
        &self,
        count: usize,
        timeout: Duration,
    ) -> Result<Vec<FinalizedVoteSet>, ElectionError> {
        self.drain_vote_sets(count, timeout, false)
    }

    /// Reads `Msg::Finalized` envelopes off the coordinator endpoint until
    /// `count` distinct collectors have sent theirs or `timeout` of wall
    /// time passes, keeping what arrived in the run state either way.
    /// With `refetch`, every [`CLOSE_RETRY`] of network time the
    /// collectors are sent `ClosePolls` again.
    fn drain_vote_sets(
        &self,
        count: usize,
        timeout: Duration,
        refetch: bool,
    ) -> Result<Vec<FinalizedVoteSet>, ElectionError> {
        let coordinator = self.coordinator.lock();
        let mut sets = std::mem::take(&mut self.run.lock().drained);
        // lint:allow(wall-clock, operator-facing vote-set collection deadline)
        let deadline = Instant::now() + timeout;
        let retry_ns = CLOSE_RETRY.as_nanos() as u64;
        let mut retry_at = coordinator.now_ns() + retry_ns;
        let result = loop {
            if sets.len() >= count {
                break Ok(());
            }
            // lint:allow(wall-clock, operator-facing deadline arithmetic; cores still step on now_ms)
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break Err(ElectionError::VoteSetTimeout);
            };
            let now = coordinator.now_ns();
            if now >= retry_at {
                if refetch {
                    Self::send_close_polls(&coordinator, self.setup.params.num_vc);
                }
                retry_at = now + retry_ns;
            }
            // A virtual clock never passes its limit, so a wait beyond it
            // would never end: the simulation is over there.
            let wait_ns = match self.clock.virtual_clock() {
                Some(vclock) if now >= vclock.limit_ns() => {
                    break Err(ElectionError::VoteSetTimeout)
                }
                Some(vclock) => retry_at.min(vclock.limit_ns()) - now,
                None => (retry_at - now).min(left.as_nanos() as u64),
            };
            match coordinator.recv_timeout(Duration::from_nanos(wait_ns)) {
                // `from` is the sender the transport vouches for (the
                // router in process, the authenticated channel over TCP).
                Ok(Envelope {
                    from,
                    msg: Msg::Finalized(finalized),
                    ..
                }) if from == NodeId::vc(finalized.node_index) => {
                    if !sets.iter().any(|f| f.node_index == finalized.node_index) {
                        sets.push(finalized);
                    }
                }
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break Err(ElectionError::VoteSetTimeout),
            }
        };
        self.run.lock().drained = sets.clone();
        result.map(|()| sets)
    }

    fn is_full_setup(&self) -> bool {
        // Keyed on the profile, not on setup contents: `SetupProfile::VcOnly`
        // still deals trustee key material, just no per-ballot payloads.
        self.profile == ddemos_ea::SetupProfile::Full
    }
}

/// Handle for the voting phase. Obtained from [`Election::voting`];
/// casting records receipts, audit data, and vote-collection timing inside
/// the election.
pub struct VotingPhase<'a> {
    election: &'a Election,
    patience: Duration,
}

impl VotingPhase<'_> {
    /// Sets the per-node patience (`[d]` of Definition 1; use
    /// [`ddemos::liveness::LivenessParams::t_wait`] for the theorem-backed
    /// value). Default: 5 s.
    #[must_use]
    pub fn patience(mut self, d: Duration) -> Self {
        self.patience = d;
        self
    }

    /// Casts ballot `ballot_index`'s vote for `option`, choosing the
    /// ballot part by the voter's coin flip.
    ///
    /// # Errors
    /// See [`VoteError`].
    ///
    /// # Panics
    /// Panics if `ballot_index` exceeds the materialized ballots.
    pub fn cast(&self, ballot_index: usize, option: usize) -> Result<VoteRecord, VoteError> {
        self.cast_inner(ballot_index, option, None)
    }

    /// Casts with a fixed ballot part (adversarial scenarios and tests fix
    /// the coin).
    ///
    /// # Errors
    /// See [`VoteError`].
    ///
    /// # Panics
    /// Panics if `ballot_index` exceeds the materialized ballots.
    pub fn cast_with_part(
        &self,
        ballot_index: usize,
        option: usize,
        part: PartId,
    ) -> Result<VoteRecord, VoteError> {
        self.cast_inner(ballot_index, option, Some(part))
    }

    fn cast_inner(
        &self,
        ballot_index: usize,
        option: usize,
        part: Option<PartId>,
    ) -> Result<VoteRecord, VoteError> {
        let election = self.election;
        let ballot = &election.setup.ballots[ballot_index];
        let endpoint = election.client_endpoint();
        let sequence = election.cast_seq.fetch_add(1, Ordering::SeqCst);
        let rng = StdRng::seed_from_u64(
            election.seed ^ 0x564F_5445 ^ ((ballot_index as u64) << 24) ^ sequence,
        );
        let t0 = election.clock.now_ns();
        let mut voter = Voter::new(
            ballot,
            endpoint.as_ref(),
            election.setup.params.num_vc,
            self.patience,
            rng,
        );
        let outcome = match part {
            Some(part) => voter.vote_with_part(option, part),
            None => voter.vote(option),
        };
        let elapsed = Duration::from_nanos(election.clock.now_ns().saturating_sub(t0));
        let mut state = election.run.lock();
        state.timings.vote_collection += elapsed;
        if let Ok(record) = &outcome {
            state.audits.push(record.audit.clone());
            state
                .receipts
                .push((record.audit.serial, record.audit.receipt));
        }
        outcome
    }

    /// Runs a bulk concurrent workload (the paper's multithreaded voting
    /// client); statistics fold into the election's report. Unlike
    /// [`VotingPhase::cast`], bulk voters keep their audit data to
    /// themselves — receipt checks happen inline in each client thread.
    pub fn run(&self, workload: &Workload) -> WorkloadStats {
        let election = self.election;
        let NetBackend::Sim(net) = &election.net else {
            panic!("bulk workloads require the simulated network (Network::Sim)")
        };
        let first_client = election.alloc_clients(workload.concurrency as u32);
        let stats = workload.run(
            net,
            &election.setup.params,
            &election.setup.ballots,
            first_client,
        );
        let mut state = election.run.lock();
        state.timings.vote_collection += stats.duration;
        state.workload = Some(stats.clone());
        stats
    }
}
