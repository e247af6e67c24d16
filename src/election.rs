//! The running [`Election`] facade and its typed phase handles.

use crate::builder::StoreKind;
use crate::report::{ElectionReport, NetReport};
use crate::tcp::TcpBackend;
use crate::workload::{Workload, WorkloadStats};
use crossbeam_channel::Receiver;
use ddemos::auditor::{AuditReport, Auditor};
use ddemos::voter::{VoteError, VoteRecord, Voter};
use ddemos_bb::{BbApi, BbNode, BbSnapshot, MajorityReader};
use ddemos_ea::{ElectionAuthority, SetupOutput};
use ddemos_net::{DynEndpoint, NetStats, SimNet};
use ddemos_obs::{MetricsSnapshot, Recorder, TimeDomain};
use ddemos_protocol::ballot::AuditInfo;
use ddemos_protocol::clock::{ActorGuard, GlobalClock};
use ddemos_protocol::posts::ElectionResult;
use ddemos_protocol::{NodeId, PartId, SerialNo};
use ddemos_trustee::Trustee;
use ddemos_vc::{FinalizedVoteSet, VcHandle};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Coordinator of remote replicas over TCP sockets.
    Tcp(TcpBackend),
}

impl NetBackend {
    fn stats(&self) -> &NetStats {
        match self {
            NetBackend::Sim(net) => net.stats(),
            NetBackend::Tcp(backend) => backend.transport.stats(),
        }
    }

    fn register(&self, id: NodeId) -> DynEndpoint {
        match self {
            NetBackend::Sim(net) => Box::new(net.register(id)),
            NetBackend::Tcp(backend) => Box::new(backend.transport.register(id)),
        }
    }

    /// Connection counters of the authenticated-channel transport
    /// (`None` on the simulated network).
    fn conn_counters(&self) -> Option<ddemos_net::ConnSnapshot> {
        match self {
            NetBackend::Sim(_) => None,
            NetBackend::Tcp(backend) => Some(backend.transport.conn_counters()),
        }
    }

    fn shutdown(&self) {
        match self {
            NetBackend::Sim(net) => net.shutdown(),
            NetBackend::Tcp(backend) => backend.shutdown(),
        }
    }
}

/// How long [`Election::close`] waits for a BB majority to hold the
/// encrypted tally challenge after the VC→BB push.
const BB_PUBLISH_TIMEOUT: Duration = Duration::from_secs(60);
/// How long [`Election::tally`] waits for the trustee-input snapshot.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long [`Election::tally`] waits for the published result.
const RESULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Orchestration errors surfaced by the phase handles.
#[derive(Debug)]
pub enum ElectionError {
    /// Not enough VC nodes finalized a vote set in time.
    VoteSetTimeout,
    /// The BB majority never published the expected artifact.
    BbTimeout(&'static str),
    /// A trustee failed to produce its post.
    Trustee(ddemos_trustee::TrusteeError),
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
            ElectionError::Trustee(e) => write!(f, "trustee failure: {e}"),
            ElectionError::PhaseUnavailable(why) => write!(f, "phase unavailable: {why}"),
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
    /// VC→BB uploads, msk reconstruction, code decryption, encrypted tally.
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
    /// Vote sets collected by a timed-out `close()`, preserved for retry
    /// (each node releases its finalized set exactly once).
    pub(crate) drained: Vec<FinalizedVoteSet>,
    pub(crate) finalized: Option<Vec<FinalizedVoteSet>>,
    /// Whether the VC→BB publication (push + challenge) has completed.
    pub(crate) published: bool,
    pub(crate) result: Option<ElectionResult>,
    pub(crate) audit_report: Option<AuditReport>,
}

/// A running election: the EA's setup output plus every long-lived
/// component — simulated network, global clock, VC cluster, BB replicas,
/// and trustees-in-waiting. Built by [`crate::ElectionBuilder`]; driven
/// through the typed phase handles ([`Election::voting`],
/// [`Election::close`], [`Election::tally`], [`Election::audit`]) or all
/// at once via [`Election::finish`].
pub struct Election {
    /// The EA's setup output (printed ballots retained for voters and
    /// auditors, exactly as the paper distributes them out of band).
    pub setup: SetupOutput,
    pub(crate) net: NetBackend,
    pub(crate) clock: GlobalClock,
    /// Local BB replicas (empty for a TCP coordinator — the replicas
    /// live in other processes, reachable through [`Election::bb_apis`]).
    pub(crate) bb_nodes: Vec<Arc<BbNode>>,
    /// Every BB replica as a write/read client, local or remote.
    pub(crate) bb_apis: Vec<Arc<dyn BbApi>>,
    pub(crate) reader: MajorityReader,
    pub(crate) trustees: Vec<Trustee>,
    pub(crate) vc_handles: Vec<VcHandle>,
    pub(crate) result_rx: Receiver<FinalizedVoteSet>,
    pub(crate) seed: u64,
    pub(crate) store: StoreKind,
    pub(crate) profile: ddemos_ea::SetupProfile,
    pub(crate) threads: usize,
    /// Wall-clock bound on the [`Election::close`] vote-set drain.
    pub(crate) close_timeout: Duration,
    pub(crate) next_client: AtomicU32,
    pub(crate) cast_seq: AtomicU64,
    pub(crate) run: Mutex<RunState>,
    /// Serializes [`Election::close`] (the per-node deliveries it drains
    /// are one-shot).
    pub(crate) close_lock: Mutex<()>,
    /// BB indices flagged by a `CrashAmnesia` fault (BB replicas have no
    /// network inbox, so the network hook records them here); serviced —
    /// state reset + journal replay — before the next BB interaction.
    pub(crate) bb_amnesia: Arc<parking_lot::Mutex<std::collections::BTreeSet<u32>>>,
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
        // An unjoined drop must still release every node: under a virtual
        // clock the nodes are blocked in virtual waits and only wake when
        // the network (and with it the clock) shuts down.
        for handle in &self.vc_handles {
            handle.request_stop();
        }
        self.net.shutdown();
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

    /// Closes the polls on every VC node and drives the post-voting
    /// pipeline up to the Bulletin Board: vote-set consensus to a quorum of
    /// [`FinalizedVoteSet`]s, the VC→BB upload, and (for full setups) the
    /// appearance of the encrypted tally challenge on a BB majority.
    ///
    /// Idempotent: once the pipeline has completed, later calls (e.g. a
    /// `finish()` after a manual `close()`) return the cached vote sets;
    /// after a failure, retrying resumes from whatever had already been
    /// collected (each VC node releases its finalized set exactly once).
    ///
    /// # Errors
    /// [`ElectionError::VoteSetTimeout`] or [`ElectionError::BbTimeout`].
    pub fn close(&self) -> Result<Vec<FinalizedVoteSet>, ElectionError> {
        // Serialized: concurrent closers must not split the one-shot
        // per-node deliveries between them.
        let _phase = self.close_lock.lock();
        self.service_bb_amnesia();
        let cached = self.run.lock().finalized.clone();
        let finalized = match cached {
            Some(finalized) => finalized,
            None => {
                self.close_polls();
                let quorum = self.setup.params.vc_quorum();
                // Drain inline (not via await_vote_sets) so a timeout
                // preserves the partially collected sets for a retry. The
                // channel drain is a wall-clock wait on work the nodes do
                // in simulation time, so it runs suspended: virtual time
                // keeps advancing underneath until the sets arrive.
                let mut pending = std::mem::take(&mut self.run.lock().drained);
                // lint:allow(wall-clock, operator-facing close-polls deadline over a real transport)
                let deadline = Instant::now() + self.close_timeout;
                while pending.len() < quorum {
                    let received = match &self.net {
                        NetBackend::Sim(_) => self.suspended(|| {
                            deadline
                                // lint:allow(wall-clock, operator-facing deadline arithmetic; cores still step on now_ms)
                                .checked_duration_since(Instant::now())
                                .ok_or(())
                                .and_then(|left| self.result_rx.recv_timeout(left).map_err(|_| ()))
                        }),
                        // Remote VC replicas deliver their finalized sets
                        // as Msg::Finalized envelopes on the control
                        // endpoint.
                        NetBackend::Tcp(backend) => {
                            backend.recv_finalized(deadline).map_err(|_| ())
                        }
                    };
                    match received {
                        // The in-process channel delivers once per node;
                        // a real transport can duplicate (reconnect
                        // re-sends, a restarted volatile replica). The
                        // quorum must count distinct nodes.
                        Ok(finalized) => {
                            if !pending.iter().any(|f| f.node_index == finalized.node_index) {
                                pending.push(finalized);
                            }
                        }
                        Err(()) => {
                            self.run.lock().drained = pending;
                            return Err(ElectionError::VoteSetTimeout);
                        }
                    }
                }
                // Cache before the fallible BB wait below: consensus has
                // completed, and the sets can never be re-read from the
                // channel. Consensus timing comes from the node-stamped
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
            // two samples the driver only does synchronous BB writes, and
            // the read predicate is a pure function of those writes — so
            // the delta is 0 (first-try read) or the whole wait errors,
            // independent of the racy absolute base.
            let t1 = self.clock.now_ns();
            self.push_to_bb(&finalized);
            self.reader
                .read_until(BB_PUBLISH_TIMEOUT, |s| s.challenge.is_some())
                .ok_or(ElectionError::BbTimeout("encrypted tally"))?;
            let mut state = self.run.lock();
            state.timings.push_to_bb_and_tally +=
                Duration::from_nanos(self.clock.now_ns().saturating_sub(t1));
            state.published = true;
        }
        Ok(finalized)
    }

    /// Runs every trustee against the BB majority and majority-reads the
    /// published result. Requires [`Election::close`] to have completed.
    ///
    /// Idempotent: once a result has been published, later calls (e.g. a
    /// `finish()` after a manual `tally()`) return it without re-running
    /// the trustees or double-counting the publish timing.
    ///
    /// # Errors
    /// [`ElectionError::PhaseUnavailable`] before `close` or on a
    /// VC-only setup; otherwise trustee and BB failures.
    pub fn tally(&self) -> Result<ElectionResult, ElectionError> {
        self.service_bb_amnesia();
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
        let snapshot = self
            .reader
            .read_until(SNAPSHOT_TIMEOUT, |s| {
                s.vote_set.is_some() && s.challenge.is_some()
            })
            .ok_or(ElectionError::BbTimeout("vote set and challenge"))?;
        let posts = self
            .trustees
            .iter()
            .map(|trustee| {
                let (post, sig) = trustee.produce_post(&snapshot)?;
                Ok((Arc::new(post), sig))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(ElectionError::Trustee)?;
        self.write_to_replicas(&posts, |bb, (post, sig)| {
            let _ = bb.submit_trustee_post(post.clone(), sig);
        });
        let result = self
            .reader
            .read_until(RESULT_TIMEOUT, |s| s.result.is_some())
            .and_then(|s| s.result)
            .ok_or(ElectionError::BbTimeout("result"))?;
        let mut state = self.run.lock();
        state.timings.publish_result +=
            Duration::from_nanos(self.clock.now_ns().saturating_sub(t0));
        state.result = Some(result.clone());
        Ok(result)
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
        self.service_bb_amnesia();
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
    /// folds the transport's connection counters in as `net.conn.*`.
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
        }
        metrics
    }

    /// The worker count of the parallel runtime (EA setup, trustee share
    /// processing, audit sweep).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Stops all node threads and the network. The network (and, in
    /// virtual mode, the clock) shuts down before joining, so node threads
    /// blocked in virtual waits are woken rather than joined against.
    pub fn shutdown(mut self) {
        let handles = std::mem::take(&mut self.vc_handles);
        for handle in &handles {
            handle.request_stop();
        }
        self.net.shutdown();
        for handle in handles {
            handle.stop();
        }
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
            NetBackend::Tcp(_) => {
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

    /// Runs `f` (a wall-clock wait on something virtual actors produce)
    /// with the driver's virtual-time registration suspended, so the
    /// simulation keeps advancing underneath. No-op in real mode.
    pub(crate) fn suspended<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.clock.virtual_clock() {
            Some(vclock) => vclock.suspend(f),
            None => f(),
        }
    }

    /// The majority reader over the BB replicas.
    pub fn reader(&self) -> &MajorityReader {
        &self.reader
    }

    /// The BB replicas.
    pub fn bb_nodes(&self) -> &[Arc<BbNode>] {
        &self.bb_nodes
    }

    /// Majority-reads the current BB snapshot.
    pub fn snapshot(&self) -> Option<BbSnapshot> {
        self.service_bb_amnesia();
        self.reader.read_snapshot()
    }

    /// Services pending BB power-cycles: a `CrashAmnesia` fault flagged
    /// the replica (BB nodes have no inbox to receive the signal), and
    /// before the next interaction its state is reset and rebuilt from
    /// its journal — or comes back empty without one, leaving the `fb+1`
    /// read majority to carry the subsystem. BB state only changes
    /// through driver-synchronous writes, so servicing lazily here is
    /// equivalent to servicing at the fault's timestamp.
    fn service_bb_amnesia(&self) {
        let flagged: Vec<u32> = std::mem::take(&mut *self.bb_amnesia.lock())
            .into_iter()
            .collect();
        for index in flagged {
            if let Some(bb) = self.bb_nodes.get(index as usize) {
                bb.recover_amnesia();
            }
        }
    }

    /// Registers a fresh client (voter terminal) endpoint on whichever
    /// transport the election runs over.
    pub fn client_endpoint(&self) -> DynEndpoint {
        self.net.register(NodeId::client(self.alloc_clients(1)))
    }

    /// Reserves `count` fresh client ids, returning the first.
    pub(crate) fn alloc_clients(&self, count: u32) -> u32 {
        self.next_client.fetch_add(count, Ordering::SeqCst)
    }

    /// Closes the polls on every VC node (as if every clock passed
    /// `Tend`) without waiting for consensus — [`Election::close`] is the
    /// usual entry point.
    ///
    /// Over the simulated transport the close rides the network as an
    /// authenticated `Msg::ClosePolls` control envelope, sent to every
    /// node from a single pinned virtual instant. The alternative — the
    /// `force_end` flag each driver polls — is a wall-clock signal: which
    /// idle tick observes it varies with scheduler timing, staggering the
    /// node closes nondeterministically and letting the announce-phase
    /// straggler traffic (and so the canonical metrics snapshot) differ
    /// between same-seed runs. As envelopes the closes are virtual-time
    /// events with seeded latencies: the whole close cascade becomes a
    /// pure function of the seed. The flag stays in use for TCP clusters
    /// (already a wall-clock world) and as the driver-level fallback.
    pub fn close_polls(&self) {
        match &self.net {
            NetBackend::Sim(_) => {
                let endpoint = self.net.register(NodeId::client(self.alloc_clients(1)));
                // Pin the virtual clock so every close is stamped with
                // the same send time; arrival order is then decided by
                // the seeded per-link latencies alone.
                let _actor = endpoint.actor_guard();
                for handle in &self.vc_handles {
                    endpoint.send(handle.id, ddemos_protocol::messages::Msg::ClosePolls);
                }
            }
            NetBackend::Tcp(backend) => {
                for handle in &self.vc_handles {
                    handle.close_polls();
                }
                backend.close_polls();
            }
        }
    }

    /// Waits until at least `count` VC nodes deliver their finalized vote
    /// sets (they do so after their clocks pass `Tend` or
    /// [`Election::close_polls`]).
    ///
    /// # Errors
    /// [`ElectionError::VoteSetTimeout`] on expiry.
    pub fn await_vote_sets(
        &self,
        count: usize,
        timeout: Duration,
    ) -> Result<Vec<FinalizedVoteSet>, ElectionError> {
        let mut out = Vec::new();
        // lint:allow(wall-clock, operator-facing vote-set collection deadline over a real transport)
        let deadline = Instant::now() + timeout;
        let result = loop {
            if out.len() >= count {
                break Ok(());
            }
            // lint:allow(wall-clock, operator-facing deadline arithmetic; cores still step on now_ms)
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break Err(ElectionError::VoteSetTimeout);
            };
            match self.suspended(|| self.result_rx.recv_timeout(remaining)) {
                Ok(finalized) => out.push(finalized),
                Err(_) => break Err(ElectionError::VoteSetTimeout),
            }
        };
        // Each node releases its finalized set exactly once; record every
        // drained set so a later close() resumes from them instead of
        // re-awaiting deliveries that can never come.
        self.run.lock().drained.extend(out.iter().cloned());
        result.map(|()| out)
    }

    /// Pushes finalized vote sets and msk shares to every BB node (each VC
    /// node writes to all replicas, §III-G).
    pub fn push_to_bb(&self, finalized: &[FinalizedVoteSet]) {
        self.service_bb_amnesia();
        self.write_to_replicas(finalized, |bb, f| {
            let _ = bb.submit_vote_set(f.node_index, &f.vote_set, &f.signature);
            let _ = bb.submit_msk_share(&f.msk_share);
        });
    }

    /// Submits `items`, in order, to every BB replica. The replicas are
    /// isolated (§III-G) and verify every write themselves, so in real
    /// time each gets its own thread — what a deployment with one machine
    /// per replica does anyway — and the slowest replica, not their sum,
    /// sets the wait. Under a virtual clock the writes stay on the driver
    /// thread, item by item: a BB write sleeps on its journal's modelled
    /// latency, and only a registered actor may block the virtual clock —
    /// unregistered writers deadlock it, registered ones reorder the
    /// actor set every seed's replay fingerprint is a function of.
    fn write_to_replicas<T: Sync>(&self, items: &[T], write: impl Fn(&dyn BbApi, &T) + Sync) {
        if self.clock.virtual_clock().is_some() {
            for item in items {
                for bb in &self.bb_apis {
                    write(bb.as_ref(), item);
                }
            }
            return;
        }
        std::thread::scope(|scope| {
            for bb in &self.bb_apis {
                let write = &write;
                scope.spawn(move || items.iter().for_each(|item| write(bb.as_ref(), item)));
            }
        });
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
