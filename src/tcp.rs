//! Multi-process elections over TCP sockets.
//!
//! The paper's prototype runs every VC and BB replica as its own
//! networked process (§V). This module is that process topology for the
//! reproduction: a [`TcpCluster`] names the listen address of every
//! replica plus the election coordinator, [`run_vc_replica`] /
//! [`run_bb_replica`] are the blocking replica mains, and
//! `ElectionBuilder::network(Network::Tcp(cluster))` builds an
//! [`crate::Election`] whose phase handles drive the remote cluster:
//! voters cast over sockets, `close()` collects `Msg::Finalized`
//! envelopes and relays the vote sets to every BB replica, `tally()`
//! and `audit()` run against a majority read of `Msg::BbReadResponse`s.
//!
//! The replicas run the *same* sans-I/O cores (`VcCore`, `BbCore`) as the
//! in-process simulation — only the driver differs — which is what makes
//! the same-seed TCP and in-process runs produce identical tallies,
//! receipts, and audit verdicts (`examples/tcp_cluster.rs` asserts
//! exactly that across OS processes).
//!
//! # Initialization data: what the seed stands in for
//!
//! In the paper the EA deals each component its initialization data over
//! an out-of-band channel and is destroyed (§III-D). Here every process
//! is started with the shared `(params, seed)` and derives *its own
//! slice* of the deterministic set-up ([`SetupProfile`]): a VC replica
//! its node's `VcInit` and the consensus beacon
//! ([`SetupProfile::VcNode`]), a BB replica `BbInit`
//! ([`SetupProfile::BbNode`]), the coordinator — which also plays the
//! voters, the trustees and the auditor — the whole set-up, a load shard
//! the printed ballots it casts. A slice equals that slice of the whole
//! set-up byte for byte (`crates/ea/tests/golden.rs`).
//!
//! What this models: what each role **holds and computes** while it runs.
//! A collector process never derives or holds a printed ballot (vote code
//! ↔ option), a trustee's opening shares or the BB payload; a BB replica
//! holds no collector's receipt shares, no printed ballot and no trustee
//! share; no replica makes a signature over an object it is not handed.
//! Memory and start-up time are a replica's own.
//!
//! What it does not model: the **secrecy** of the dealing. The seed is
//! the EA's master secret, and a process that has it *could* derive any
//! other role's data — the stand-in replaces the untappable channels of
//! §III-D, it does not implement them. A deployment hands each process
//! its slice (the `VcInit`/`BbInit` structures are exactly that hand-out)
//! and never the seed; nothing downstream of `derive_setup` reads it
//! except the channel-authentication stand-in
//! ([`seeded_secret`], likewise a placeholder for distributed keys).

use crate::election::ElectionError;
use ddemos_bb::{codec as bb_codec, BbApi, BbNode, BbSnapshot, WriteError};
use ddemos_crypto::schnorr::Signature;
use ddemos_crypto::vss::SignedShare;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_net::auth::{seeded_secret, AuthConfig};
use ddemos_net::evloop::EvConfig;
use ddemos_net::tcp::{TcpConfig, TcpTransport};
use ddemos_net::{
    AuthTransport, ConnSnapshot, DynEndpoint, EvNodeEndpoint, EventEndpoint, NetStats, Transport,
    Wait,
};
use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::exec::Pool;
use ddemos_protocol::messages::{BbWriteMsg, Msg};
use ddemos_protocol::posts::{FinalizedVoteSet, TrusteePost, VoteSet};
use ddemos_protocol::{ElectionParams, NodeId, NodeKind};
use ddemos_vc::{DeliverTarget, MemoryStore, VcNode, VcNodeConfig};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The election coordinator's well-known identity (`C0`): the endpoint
/// VC replicas deliver their [`Msg::Finalized`] sets to, and the source
/// of the `ClosePolls`/`Shutdown` control envelopes replicas accept.
pub const COORDINATOR: NodeId = NodeId {
    kind: NodeKind::Client,
    index: 0,
};

/// Per-request timeout of remote BB reads and writes.
const BB_REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Which socket driver the deployment runs on. Every process of one
/// cluster must agree (the wire protocols differ).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TcpDriver {
    /// The historic thread-per-peer blocking transport
    /// ([`TcpTransport`]): raw CRC frames, sender-claimed `from`.
    #[default]
    Threaded,
    /// The readiness-driven epoll front door
    /// ([`ddemos_net::evloop::EvLoop`]): one event loop per replica,
    /// authenticated channels, admission control and backpressure. No
    /// thread per peer — this is the driver the load harness pushes to
    /// six-figure connection counts.
    EventLoop,
}

/// Listener, admission and channel-authentication configuration of a
/// TCP deployment. Carried inside [`TcpCluster`] so every replica
/// process (which receives the cluster on its command line or re-derives
/// it from shared state) agrees with the coordinator.
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// The socket driver.
    pub driver: TcpDriver,
    /// Admission limit per replica (event-loop driver only): inbound
    /// connections beyond this receive a typed `ServerFull` reject.
    pub max_conns: usize,
    /// Per-connection write-queue cap in bytes (event-loop driver
    /// only); slow consumers over the cap are shed.
    pub write_cap: usize,
    /// Maximum envelope frame accepted on an authenticated channel.
    pub max_frame: u32,
    /// The 32-byte cluster secret for channel authentication. `None`
    /// derives it from the election seed ([`seeded_secret`]) — the
    /// deterministic stand-in for out-of-band key distribution.
    pub auth_secret: Option<[u8; 32]>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            driver: TcpDriver::default(),
            max_conns: 16384,
            write_cap: 1 << 20,
            max_frame: 16 << 20,
            auth_secret: None,
        }
    }
}

impl TcpOptions {
    /// Options for the event-loop driver with default admission limits.
    pub fn event_loop() -> TcpOptions {
        TcpOptions {
            driver: TcpDriver::EventLoop,
            ..TcpOptions::default()
        }
    }
}

/// Addresses of every process in a TCP deployment.
#[derive(Clone, Debug)]
pub struct TcpCluster {
    /// VC replica listen addresses, indexed by node.
    pub vc_addrs: Vec<SocketAddr>,
    /// BB replica listen addresses, indexed by node.
    pub bb_addrs: Vec<SocketAddr>,
    /// The coordinator's listen address (VC replicas connect here to
    /// deliver finalized vote sets — threaded driver only; under the
    /// event-loop driver the coordinator dials out and replicas answer
    /// over its own authenticated connections).
    pub coordinator: SocketAddr,
    /// Driver, admission and authentication configuration shared by
    /// every process.
    pub options: TcpOptions,
}

impl TcpCluster {
    /// A localhost cluster on consecutive ports starting at `base_port`:
    /// VC `i` at `base_port + i`, BB `j` after the VCs, the coordinator
    /// last.
    pub fn localhost(base_port: u16, num_vc: usize, num_bb: usize) -> TcpCluster {
        let addr = |offset: u16| SocketAddr::from(([127, 0, 0, 1], base_port + offset));
        TcpCluster {
            vc_addrs: (0..num_vc as u16).map(addr).collect(),
            bb_addrs: (0..num_bb as u16)
                .map(|j| addr(num_vc as u16 + j))
                .collect(),
            coordinator: addr((num_vc + num_bb) as u16),
            options: TcpOptions::default(),
        }
    }

    /// A localhost cluster on OS-assigned free ports: each port is
    /// probed by binding a throwaway listener. The ports are released
    /// again before this returns, so a race with another process is
    /// possible but unlikely — good enough for tests and demos.
    ///
    /// # Errors
    /// I/O errors probing for free ports.
    pub fn localhost_free(num_vc: usize, num_bb: usize) -> std::io::Result<TcpCluster> {
        let mut probes = Vec::with_capacity(num_vc + num_bb + 1);
        let mut addrs = Vec::with_capacity(num_vc + num_bb + 1);
        for _ in 0..num_vc + num_bb + 1 {
            let probe = std::net::TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
            addrs.push(probe.local_addr()?);
            probes.push(probe);
        }
        drop(probes);
        let bb_start = num_vc;
        Ok(TcpCluster {
            vc_addrs: addrs[..num_vc].to_vec(),
            bb_addrs: addrs[bb_start..bb_start + num_bb].to_vec(),
            coordinator: addrs[num_vc + num_bb],
            options: TcpOptions::default(),
        })
    }

    /// Replaces the driver/admission/auth options (builder-style).
    #[must_use]
    pub fn with_options(mut self, options: TcpOptions) -> TcpCluster {
        self.options = options;
        self
    }

    /// The channel-authentication config every process derives from the
    /// shared `(options, seed)`.
    pub(crate) fn auth_config(&self, seed: u64) -> AuthConfig {
        AuthConfig {
            secret: self
                .options
                .auth_secret
                .unwrap_or_else(|| seeded_secret(seed)),
            max_frame: self.options.max_frame,
        }
    }

    /// The event-loop config of one replica.
    fn ev_config(&self, seed: u64, me: NodeId) -> EvConfig {
        EvConfig {
            auth: self.auth_config(seed),
            max_conns: self.options.max_conns,
            write_cap: self.options.write_cap,
            nonce_seed: process_nonce_seed(me),
        }
    }

    /// The static peer table of one replica: every *other* replica plus
    /// the coordinator.
    pub fn replica_peers(&self, me: NodeId) -> Vec<(NodeId, SocketAddr)> {
        let mut peers = self.all_replicas();
        peers.retain(|(id, _)| *id != me);
        peers.push((COORDINATOR, self.coordinator));
        peers
    }

    /// The coordinator's static peer table: every replica.
    pub fn coordinator_peers(&self) -> Vec<(NodeId, SocketAddr)> {
        self.all_replicas()
    }

    fn all_replicas(&self) -> Vec<(NodeId, SocketAddr)> {
        let mut peers = Vec::with_capacity(self.vc_addrs.len() + self.bb_addrs.len());
        for (i, addr) in self.vc_addrs.iter().enumerate() {
            peers.push((NodeId::vc(i as u32), *addr));
        }
        for (j, addr) in self.bb_addrs.iter().enumerate() {
            peers.push((NodeId::bb(j as u32), *addr));
        }
        peers
    }
}

/// A unique-per-process handshake-nonce seed. Determinism of the
/// *election* never depends on it (nonces only feed session-key
/// freshness), and repeating nonces across replica restarts would be
/// exactly the cross-epoch replay surface the channel closes — so this
/// mixes in process identity and boot time rather than the election
/// seed.
pub(crate) fn process_nonce_seed(me: NodeId) -> [u8; 32] {
    let mut base = [0u8; 32];
    base[..4].copy_from_slice(&std::process::id().to_be_bytes());
    // lint:allow(wall-clock, per-process handshake-nonce uniqueness; never reaches a core)
    let boot = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    base[4..20].copy_from_slice(&boot.as_nanos().to_be_bytes());
    ddemos_crypto::hmac::hmac_sha256_parts(
        &base,
        &[b"ddemos.tcp.nonce-seed", format!("{me}").as_bytes()],
    )
}

/// Derives one process's slice of the deterministic setup. EA setup is a
/// pure function of `(params, seed)` and independent of the worker count,
/// and a role's slice equals that slice of the whole set-up
/// (`crates/ea/tests/golden.rs`), so each process deriving its *own*
/// initialization data is equivalent to the paper's out-of-band
/// distribution of it.
fn derive_setup(params: &ElectionParams, seed: u64, profile: SetupProfile) -> SetupOutput {
    ElectionAuthority::new(params.clone(), seed).setup_with(profile, &Pool::from_env())
}

/// Runs one VC replica to completion: derives its initialization data,
/// binds its listener, serves the full protocol (voting, vote-set
/// consensus, finalized-set delivery to the coordinator), and returns
/// when the coordinator sends `Msg::Shutdown`.
///
/// # Errors
/// I/O errors binding the replica's listen address.
pub fn run_vc_replica(
    params: &ElectionParams,
    seed: u64,
    index: u32,
    cluster: &TcpCluster,
) -> std::io::Result<()> {
    // The slice holds this node's `VcInit`, the beacon and public keys:
    // no printed ballot, BB payload or trustee share is derived, let
    // alone kept until shutdown.
    let mut setup = derive_setup(params, seed, SetupProfile::VcNode(index));
    let mut init = setup
        .vc_inits
        .pop()
        .expect("the VcNode slice holds one VcInit");
    let rows = std::mem::take(&mut init.ballots);
    let store = MemoryStore::new(rows, params.num_ballots);
    let me = NodeId::vc(index);
    let clock = GlobalClock::new();
    match cluster.options.driver {
        TcpDriver::Threaded => {
            let transport = TcpTransport::bind(TcpConfig::new(
                cluster.vc_addrs[index as usize],
                cluster.replica_peers(me),
            ))?;
            let endpoint: DynEndpoint = Transport::register(&transport, me);
            let handle = VcNode::spawn_with(
                init,
                store,
                endpoint,
                clock.node_clock_keyed(me.clock_key(), 0),
                setup.consensus_beacon,
                VcNodeConfig::default(),
                DeliverTarget::Peers(vec![COORDINATOR]),
                None,
            );
            handle.join();
            transport.shutdown();
        }
        TcpDriver::EventLoop => {
            // Dialable peers are the *other replicas* (they have
            // listeners). The coordinator and the voters have none:
            // they connect in, and their authenticated channels carry
            // the finalized sets and receipts back out.
            let mut peers = cluster.all_replicas();
            peers.retain(|(id, _)| *id != me);
            let endpoint = EvNodeEndpoint::bind(
                me,
                cluster.vc_addrs[index as usize],
                peers,
                cluster.ev_config(seed, me),
            )?;
            let handle = VcNode::spawn_event(
                init,
                store,
                Box::new(endpoint),
                clock.node_clock_keyed(me.clock_key(), 0),
                setup.consensus_beacon,
                VcNodeConfig::default(),
                DeliverTarget::Peers(vec![COORDINATOR]),
                None,
            );
            handle.join();
        }
    }
    Ok(())
}

/// Runs one BB replica to completion: a request/response loop over
/// `Msg::BbWrite` / `Msg::BbReadRequest` envelopes against a [`BbNode`],
/// until the coordinator sends `Msg::Shutdown`.
///
/// # Errors
/// I/O errors binding the replica's listen address.
pub fn run_bb_replica(
    params: &ElectionParams,
    seed: u64,
    index: u32,
    cluster: &TcpCluster,
) -> std::io::Result<()> {
    let node = BbNode::new(derive_setup(params, seed, SetupProfile::BbNode).bb_init);
    let me = NodeId::bb(index);
    match cluster.options.driver {
        TcpDriver::Threaded => {
            let transport = TcpTransport::bind(TcpConfig::new(
                cluster.bb_addrs[index as usize],
                cluster.replica_peers(me),
            ))?;
            serve_bb(&node, &Transport::register_event(&transport, me));
            transport.shutdown();
        }
        TcpDriver::EventLoop => {
            // A BB replica never dials anyone: every client (the
            // coordinator's RemoteBb clients, auditors) connects in.
            let endpoint = EvNodeEndpoint::bind(
                me,
                cluster.bb_addrs[index as usize],
                Vec::new(),
                cluster.ev_config(seed, me),
            )?;
            serve_bb(&node, &endpoint);
        }
    }
    Ok(())
}

/// The BB replica serve loop, on the poll-based event surface: wait for
/// readiness, then drain the inbox without blocking mid-batch. Runs
/// identically over the threaded transport's adapter and over an owned
/// event loop.
fn serve_bb(node: &BbNode, endpoint: &dyn EventEndpoint) {
    'serve: loop {
        match endpoint.wait(Duration::from_secs(3600)) {
            Wait::Closed => break 'serve,
            Wait::Timeout => continue 'serve,
            Wait::Ready => {}
        }
        while let Some(env) = endpoint.try_recv() {
            let control = matches!(env.from.kind, NodeKind::Client | NodeKind::Ea);
            match env.msg {
                Msg::BbWrite { request_id, write } => {
                    let outcome = node.handle_write(write);
                    endpoint.send(
                        env.from,
                        Msg::BbWriteReply {
                            request_id,
                            outcome,
                        },
                    );
                }
                Msg::BbReadRequest { request_id } => {
                    let snapshot = Arc::new(bb_codec::encode_snapshot(&node.read()));
                    endpoint.send(
                        env.from,
                        Msg::BbReadResponse {
                            request_id,
                            snapshot,
                        },
                    );
                }
                Msg::Shutdown if control => break 'serve,
                _ => {}
            }
        }
    }
}

/// A [`BbApi`] client for one remote BB replica: request/response
/// envelopes with correlation ids over a dedicated coordinator endpoint.
/// Timeouts surface as `None` / [`WriteError::Unavailable`] — the
/// majority reader outvotes an unreachable replica like any divergent
/// one.
pub struct RemoteBb {
    endpoint: Mutex<DynEndpoint>,
    target: NodeId,
    timeout: Duration,
    next_request: AtomicU64,
}

impl RemoteBb {
    /// Wraps a dedicated endpoint speaking to `target`.
    pub fn new(endpoint: DynEndpoint, target: NodeId) -> RemoteBb {
        RemoteBb {
            endpoint: Mutex::new(endpoint),
            target,
            timeout: BB_REQUEST_TIMEOUT,
            next_request: AtomicU64::new(1),
        }
    }

    /// Sends one request and waits for the reply carrying the same
    /// correlation id (stale replies from timed-out requests are
    /// discarded).
    fn request(&self, make: impl FnOnce(u64) -> Msg) -> Option<Msg> {
        let request_id = self.next_request.fetch_add(1, Ordering::SeqCst);
        let endpoint = self.endpoint.lock();
        endpoint.send(self.target, make(request_id));
        // lint:allow(wall-clock, client-side request timeout over a real TCP socket)
        let deadline = Instant::now() + self.timeout;
        loop {
            // lint:allow(wall-clock, client-side request timeout over a real TCP socket)
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let env = endpoint.recv_timeout(remaining).ok()?;
            let rid = match &env.msg {
                Msg::BbWriteReply { request_id, .. } => *request_id,
                Msg::BbReadResponse { request_id, .. } => *request_id,
                _ => continue,
            };
            if rid == request_id {
                return Some(env.msg);
            }
        }
    }

    fn write(&self, write: BbWriteMsg) -> Result<(), WriteError> {
        match self.request(|request_id| Msg::BbWrite { request_id, write }) {
            Some(Msg::BbWriteReply { outcome, .. }) => ddemos_bb::core::outcome_to_result(outcome),
            _ => Err(WriteError::Unavailable),
        }
    }
}

impl BbApi for RemoteBb {
    fn read(&self) -> Option<BbSnapshot> {
        match self.request(|request_id| Msg::BbReadRequest { request_id }) {
            Some(Msg::BbReadResponse { snapshot, .. }) => bb_codec::decode_snapshot(&snapshot).ok(),
            _ => None,
        }
    }

    fn submit_vote_set(
        &self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.write(BbWriteMsg::VoteSet {
            from_vc,
            set: set.clone(),
            sig: *sig,
        })
    }

    fn submit_msk_share(&self, share: &SignedShare) -> Result<(), WriteError> {
        self.write(BbWriteMsg::MskShare { share: *share })
    }

    fn submit_trustee_post(
        &self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.write(BbWriteMsg::TrusteePost { post, sig: *sig })
    }
}

/// The coordinator's transport, per [`TcpDriver`].
pub(crate) enum CoordTransport {
    /// Thread-per-peer raw transport (binds the coordinator listener).
    Threaded(TcpTransport),
    /// Authenticated dial-out channels to evloop-fronted replicas (no
    /// listener; replicas answer over the coordinator's connections).
    Ev(AuthTransport),
}

impl CoordTransport {
    pub(crate) fn register(&self, id: NodeId) -> DynEndpoint {
        match self {
            CoordTransport::Threaded(t) => Transport::register(t, id),
            CoordTransport::Ev(t) => Transport::register(t, id),
        }
    }

    pub(crate) fn stats(&self) -> &NetStats {
        match self {
            CoordTransport::Threaded(t) => t.stats(),
            CoordTransport::Ev(t) => t.stats(),
        }
    }

    /// Connection counters (event-loop driver only: the threaded
    /// transport has no handshake to count).
    pub(crate) fn conn_counters(&self) -> Option<ConnSnapshot> {
        match self {
            CoordTransport::Threaded(_) => None,
            CoordTransport::Ev(t) => Some(t.conn_counters()),
        }
    }

    fn shutdown(&self) {
        match self {
            CoordTransport::Threaded(t) => t.shutdown(),
            CoordTransport::Ev(t) => Transport::shutdown(t),
        }
    }
}

/// The coordinator's connection to a remote cluster (held by
/// [`crate::Election`] in TCP mode).
pub(crate) struct TcpBackend {
    pub(crate) transport: CoordTransport,
    pub(crate) cluster: TcpCluster,
    /// The `C0` control endpoint: receives [`Msg::Finalized`], sends
    /// `ClosePolls`/`Shutdown`.
    pub(crate) control: Mutex<DynEndpoint>,
    /// Guards [`TcpBackend::shutdown`] (an explicit `Election::shutdown`
    /// is followed by the `Drop` path).
    down: std::sync::atomic::AtomicBool,
}

impl TcpBackend {
    /// Binds (threaded) or prepares (event-loop) the coordinator
    /// transport and registers the control endpoint.
    pub(crate) fn connect(cluster: TcpCluster, seed: u64) -> std::io::Result<TcpBackend> {
        let transport = match cluster.options.driver {
            TcpDriver::Threaded => CoordTransport::Threaded(TcpTransport::bind(TcpConfig::new(
                cluster.coordinator,
                cluster.coordinator_peers(),
            ))?),
            TcpDriver::EventLoop => CoordTransport::Ev(AuthTransport::new(
                cluster.coordinator_peers(),
                cluster.auth_config(seed),
                process_nonce_seed(COORDINATOR),
            )),
        };
        let control = Mutex::new(transport.register(COORDINATOR));
        Ok(TcpBackend {
            transport,
            cluster,
            control,
            down: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// One [`RemoteBb`] client per BB replica, each on its own endpoint
    /// (client ids `1..=num_bb`).
    pub(crate) fn bb_clients(&self) -> Vec<Arc<dyn BbApi>> {
        (0..self.cluster.bb_addrs.len() as u32)
            .map(|j| {
                let endpoint = self.transport.register(NodeId::client(1 + j));
                Arc::new(RemoteBb::new(endpoint, NodeId::bb(j))) as Arc<dyn BbApi>
            })
            .collect()
    }

    /// Client ids `0..=num_bb` are reserved (control + BB clients).
    pub(crate) fn reserved_clients(&self) -> u32 {
        1 + self.cluster.bb_addrs.len() as u32
    }

    pub(crate) fn close_polls(&self) {
        let control = self.control.lock();
        for i in 0..self.cluster.vc_addrs.len() as u32 {
            control.send(NodeId::vc(i), Msg::ClosePolls);
        }
    }

    /// Drains one finalized vote set from the control endpoint.
    pub(crate) fn recv_finalized(
        &self,
        deadline: Instant,
    ) -> Result<FinalizedVoteSet, ElectionError> {
        let control = self.control.lock();
        loop {
            let remaining = deadline
                // lint:allow(wall-clock, client-side request timeout over a real TCP socket)
                .checked_duration_since(Instant::now())
                .ok_or(ElectionError::VoteSetTimeout)?;
            let Ok(env) = control.recv_timeout(remaining) else {
                return Err(ElectionError::VoteSetTimeout);
            };
            if let Msg::Finalized(finalized) = env.msg {
                // Under the threaded driver the envelope source is only
                // sender-claimed and this check merely gates obvious
                // noise (the vote set's own signature is what the BB
                // verifies). Under the event-loop driver `from` is
                // channel-derived, so this is a real authentication
                // gate.
                if env.from.kind == NodeKind::Vc {
                    return Ok(finalized);
                }
            }
        }
    }

    /// Tells every replica to exit, then stops the transport.
    pub(crate) fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let control = self.control.lock();
            for i in 0..self.cluster.vc_addrs.len() as u32 {
                control.send(NodeId::vc(i), Msg::Shutdown);
            }
            for j in 0..self.cluster.bb_addrs.len() as u32 {
                control.send(NodeId::bb(j), Msg::Shutdown);
            }
        }
        // Give the outbound writer threads a moment to flush the shutdown
        // frames before the sockets close.
        // lint:allow(wall-clock, shutdown-path flush grace for writer threads; not protocol time)
        std::thread::sleep(Duration::from_millis(100));
        self.transport.shutdown();
    }
}
