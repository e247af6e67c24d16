//! Multi-process elections over TCP sockets.
//!
//! The paper's prototype runs every VC and BB replica as its own
//! networked process (§V). A [`TcpCluster`] names every replica's listen
//! address, [`run_vc_replica`] / [`run_bb_replica`] are the blocking
//! replica mains, and `ElectionBuilder::network(Network::Tcp(cluster))`
//! builds an [`crate::Election`] that drives the remote cluster. Every
//! party speaks as it does in process: the coordinator sends `ClosePolls`
//! and `Shutdown` from [`crate::COORDINATOR`], takes `Finalized` back and
//! reads the board through one endpoint; each collector writes its own
//! vote set and `msk` share to every BB replica; each trustee node reads
//! the board and writes its own post. Trustee nodes are threads of the
//! coordinator's process on a transport of their own, not yet processes.
//!
//! Every party is one [`EvNodeEndpoint`] over its own epoll loop, and
//! every connection runs the seeded [`ddemos_net::auth`] handshake, so an
//! envelope's source is the channel's authenticated identity. A replica's
//! loop serves its listener; the other parties' endpoints
//! ([`AuthTransport`]) dial out. The replicas run the same drivers over
//! the same sans-I/O cores as in process, which is why a same-seed TCP
//! run reproduces the in-process tally, receipts and audit verdict
//! (`examples/tcp_cluster.rs`).
//!
//! The EA's set-up runs once, in the coordinator, and the coordinator
//! deals each BB replica its public initialization data ([`BbInit`],
//! §III-D) over its authenticated channel as the EA's stand-in: a header
//! chunk, then the ballots by serial range ([`ddemos_protocol::deal`]),
//! every chunk in one frame of at most `min(write_cap, max_frame)` bytes
//! and one chunk in flight per replica. [`run_bb_replica`] binds its
//! listener, assembles its board from the chunks and only then serves it;
//! `ElectionBuilder::build` returns once a BB majority holds its board. A
//! collector, whose slice holds signing keys and secret shares, still
//! derives its own slice of the deterministic set-up ([`SetupProfile`])
//! from the shared `(params, seed)`: the channels authenticate but do not
//! encrypt, so they cannot carry it (the per-role table is in DESIGN.md
//! §7.3). The seed is the EA's master secret, so a deployment would hand
//! each collector its slice and never the seed; the channels' one shared
//! secret ([`seeded_secret`], which is all a BB replica still takes the
//! seed for) is likewise a placeholder for per-node keys.

use crossbeam_channel::RecvTimeoutError;
use ddemos_bb::BbNode;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_net::auth::{seeded_secret, AuthConfig};
use ddemos_net::evloop::EvConfig;
use ddemos_net::{AuthTransport, EvNodeEndpoint, TransportEndpoint};
use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::codec::BB_DEAL_FRAME_OVERHEAD;
use ddemos_protocol::deal::{deal_chunks, BbInitAssembler};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::BbInit;
use ddemos_protocol::messages::{BbDealOutcome, BbWriteOutcome, Msg};
use ddemos_protocol::wire::WireError;
use ddemos_protocol::{ElectionParams, NodeId, NodeKind, COORDINATOR};
use ddemos_vc::{MemoryStore, VcNodeConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Listener, admission and channel-authentication configuration of a
/// TCP deployment. Carried inside [`TcpCluster`] so every replica
/// process (which receives the cluster on its command line or re-derives
/// it from shared state) agrees with the coordinator.
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Admission limit per replica: inbound connections beyond this
    /// receive a typed `ServerFull` reject.
    pub max_conns: usize,
    /// Per-connection write-queue cap in bytes; slow consumers over the
    /// cap are shed.
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
            max_conns: 16384,
            write_cap: 1 << 20,
            max_frame: 16 << 20,
            auth_secret: None,
        }
    }
}

impl TcpOptions {
    /// Same as [`TcpOptions::default`]. Only the frozen `ddbench/` still
    /// calls it.
    pub fn event_loop() -> TcpOptions {
        TcpOptions::default()
    }
}

/// Listen addresses of every replica in a TCP deployment (the
/// coordinator has no listener: it dials out).
#[derive(Clone, Debug)]
pub struct TcpCluster {
    /// VC replica listen addresses, indexed by node.
    pub vc_addrs: Vec<SocketAddr>,
    /// BB replica listen addresses, indexed by node.
    pub bb_addrs: Vec<SocketAddr>,
    /// Admission and authentication configuration shared by every
    /// process.
    pub options: TcpOptions,
}

impl TcpCluster {
    /// A localhost cluster on OS-assigned free ports: each port is
    /// probed by binding a throwaway listener. The ports are released
    /// again before this returns, so a race with another process is
    /// possible but unlikely — good enough for tests and demos.
    ///
    /// # Errors
    /// I/O errors probing for free ports.
    pub fn localhost_free(num_vc: usize, num_bb: usize) -> std::io::Result<TcpCluster> {
        let mut probes = Vec::with_capacity(num_vc + num_bb);
        let mut addrs = Vec::with_capacity(num_vc + num_bb);
        for _ in 0..num_vc + num_bb {
            let probe = std::net::TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
            addrs.push(probe.local_addr()?);
            probes.push(probe);
        }
        drop(probes);
        let bb_addrs = addrs.split_off(num_vc);
        Ok(TcpCluster {
            vc_addrs: addrs,
            bb_addrs,
            options: TcpOptions::default(),
        })
    }

    /// Replaces the admission/auth options (builder-style).
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

    /// Every replica's identity and listen address: the coordinator's
    /// static peer table.
    pub(crate) fn replicas(&self) -> Vec<(NodeId, SocketAddr)> {
        let vcs = (0..).map(NodeId::vc).zip(self.vc_addrs.iter().copied());
        vcs.chain((0..).map(NodeId::bb).zip(self.bb_addrs.iter().copied()))
            .collect()
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

/// Derives a collector's slice of the deterministic setup. EA setup is a
/// pure function of `(params, seed)` and independent of the worker count,
/// and the slice equals that slice of the whole set-up
/// (`crates/ea/tests/golden.rs`), so a collector deriving its *own*
/// initialization data is equivalent to the paper's out-of-band
/// distribution of it.
fn derive_setup(params: &ElectionParams, seed: u64, profile: SetupProfile) -> SetupOutput {
    ElectionAuthority::new(params.clone(), seed).setup_with(profile, &Pool::from_env())
}

/// Runs one VC replica to completion: derives its initialization data,
/// binds its listener, serves the full protocol (voting, vote-set
/// consensus, its finalized set written to every BB replica and sent to
/// the coordinator), and returns
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
    // Dialable peers are the *other replicas* (they have listeners),
    // the BB replicas among them. The coordinator and the voters have
    // none: they connect in, and their authenticated channels carry the
    // finalized sets and receipts back out.
    let mut peers = cluster.replicas();
    peers.retain(|(id, _)| *id != me);
    let endpoint = EvNodeEndpoint::bind(
        me,
        cluster.vc_addrs[index as usize],
        peers,
        cluster.ev_config(seed, me),
    )?;
    let handle = ddemos_vc::node::spawn(
        init,
        store,
        Box::new(endpoint),
        GlobalClock::new().node_clock_keyed(me.clock_key(), 0),
        setup.consensus_beacon,
        VcNodeConfig::default(),
        None,
    );
    handle.join();
    Ok(())
}

/// Runs one BB replica to completion: binds its listener, assembles its
/// board from the chunks [`COORDINATOR`] deals it ([`await_deal`]), then
/// runs [`ddemos_bb::node::serve`], the loop every in-process replica runs
/// too, until the coordinator sends `Msg::Shutdown`. The seed keys only
/// the channels.
///
/// # Errors
/// I/O errors binding the replica's listen address.
pub fn run_bb_replica(
    params: &ElectionParams,
    seed: u64,
    index: u32,
    cluster: &TcpCluster,
) -> std::io::Result<()> {
    let me = NodeId::bb(index);
    // A BB replica never dials anyone: every writer and reader (the
    // collectors, the trustees, the coordinator, auditors) connects in.
    let endpoint = EvNodeEndpoint::bind(
        me,
        cluster.bb_addrs[index as usize],
        Vec::new(),
        cluster.ev_config(seed, me),
    )?;
    if let Some(init) = await_deal(params, &endpoint) {
        ddemos_bb::node::serve(&BbNode::new(init), &endpoint);
    }
    Ok(())
}

/// Reads a BB replica's deal off `endpoint`: chunks from [`COORDINATOR`]
/// are taken in turn and each answered `Taken`, `Dealt` or `Refused`
/// (a chunk from anyone else is refused). Until the board is whole the
/// replica refuses the rest, typed and at once: a write is answered
/// `WrongPhase`, and a read with an empty snapshot, which no dealt board
/// encodes to, so a reader counts the replica out as it would an
/// unreachable one. `None` when the coordinator stops the replica, or
/// the transport closes, first.
fn await_deal(params: &ElectionParams, endpoint: &dyn TransportEndpoint) -> Option<BbInit> {
    let mut assembler = BbInitAssembler::new(params.clone());
    while let Ok(env) = endpoint.recv() {
        let reply = match env.msg {
            Msg::BbDeal { request_id, chunk } => {
                let taken = env.from == COORDINATOR && assembler.take(&chunk).is_ok();
                let outcome = match (taken, assembler.is_complete()) {
                    (false, _) => BbDealOutcome::Refused,
                    (true, false) => BbDealOutcome::Taken,
                    (true, true) => BbDealOutcome::Dealt,
                };
                Msg::BbDealReply {
                    request_id,
                    outcome,
                }
            }
            Msg::BbWrite { request_id, .. } => Msg::BbWriteReply {
                request_id,
                outcome: BbWriteOutcome::WrongPhase,
            },
            Msg::BbReadRequest { request_id } => Msg::BbReadResponse {
                request_id,
                snapshot: Arc::default(),
            },
            Msg::Shutdown if env.from == COORDINATOR => return None,
            _ => continue,
        };
        endpoint.send(env.from, reply);
        if assembler.is_complete() {
            return assembler.into_init();
        }
    }
    None
}

/// How long the dealer waits for a BB replica to answer one chunk before
/// it gives the replica up: as long as a dial retries a replica that is
/// still binding.
const DEAL_PATIENCE: Duration = Duration::from_secs(10);

/// The most board data one chunk of a deal carries. A connection's
/// buffers keep the capacity of the largest frame they carried, so chunks
/// as large as a frame may be (1 MiB by default) would leave two such
/// buffers per BB replica, one at each end, for the rest of the election;
/// a replica decodes a chunk of this size in about a millisecond.
const DEAL_CHUNK_BYTES: usize = 64 << 10;

/// Deals `init` to the `num_bb` BB replicas from `dealer`, the EA's
/// stand-in ([`COORDINATOR`]): the header, then the ballots by serial
/// range, each chunk in one frame of at most `min(write_cap, max_frame)`
/// bytes and at most [`DEAL_CHUNK_BYTES`] of board data. A replica has at
/// most one chunk in flight and gets the next once it has taken the last,
/// every replica at its own pace; one that refuses a chunk, or does not
/// answer one within [`DEAL_PATIENCE`], is given up on. Returns how many
/// replicas were dealt.
///
/// # Errors
/// [`WireError`] from [`deal_chunks`]: a frame cap that one ballot's
/// board data does not fit.
pub(crate) fn deal_board(
    dealer: &dyn TransportEndpoint,
    init: &BbInit,
    options: &TcpOptions,
) -> Result<usize, WireError> {
    let frame = options.write_cap.min(options.max_frame as usize);
    let max_chunk = frame
        .saturating_sub(BB_DEAL_FRAME_OVERHEAD)
        .min(DEAL_CHUNK_BYTES);
    let chunks: Vec<Arc<Vec<u8>>> = deal_chunks(init, max_chunk)?
        .into_iter()
        .map(Arc::new)
        .collect();
    let send = |replica: usize, k: usize| {
        let chunk = chunks.get(k)?.clone();
        let request_id = k as u64;
        dealer.send(
            NodeId::bb(replica as u32),
            Msg::BbDeal { request_id, chunk },
        );
        Some((k, dealer.now_ns()))
    };
    // Per replica: the chunk it holds unanswered and when it was sent;
    // `None` once the replica is dealt or given up on.
    let mut pending: Vec<Option<(usize, u64)>> =
        (0..init.params.num_bb).map(|j| send(j, 0)).collect();
    let patience = DEAL_PATIENCE.as_nanos() as u64;
    let mut dealt = 0;
    while let Some(deadline) = pending.iter().flatten().map(|(_, at)| at + patience).min() {
        let left = deadline.saturating_sub(dealer.now_ns());
        let env = match dealer.recv_timeout(Duration::from_nanos(left)) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) => {
                let now = dealer.now_ns();
                for slot in &mut pending {
                    if slot.is_some_and(|(_, at)| now >= at + patience) {
                        *slot = None;
                    }
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let Msg::BbDealReply {
            request_id,
            outcome,
        } = env.msg
        else {
            continue;
        };
        let replica = env.from.index as usize;
        let slot = match pending.get_mut(replica) {
            Some(slot) if env.from.kind == NodeKind::Bb => slot,
            _ => continue,
        };
        if slot.map(|(k, _)| k as u64) != Some(request_id) {
            continue;
        }
        *slot = match outcome {
            BbDealOutcome::Taken => send(replica, request_id as usize + 1),
            BbDealOutcome::Dealt => {
                dealt += 1;
                None
            }
            BbDealOutcome::Refused => None,
        };
    }
    Ok(dealt)
}

/// A dial-out transport to a remote cluster for client parties (held by
/// [`crate::Election`] in TCP mode: one for the coordinator, one for the
/// trustee nodes), its nonces seeded for `party`. Nothing is dialed until
/// the first send.
pub(crate) fn client_transport(cluster: &TcpCluster, seed: u64, party: NodeId) -> AuthTransport {
    AuthTransport::new(
        cluster.replicas(),
        cluster.auth_config(seed),
        process_nonce_seed(party),
    )
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use ddemos_crypto::field::Scalar;
    use ddemos_crypto::schnorr::SigningKey;
    use ddemos_crypto::shamir::Share;
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_crypto::vss::SignedShare;
    use ddemos_protocol::messages::BbWriteMsg;
    use ddemos_protocol::SerialNo;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::JoinHandle;
    use std::time::Instant;

    const SEED: u64 = 7;

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

    /// A VC replica endpoint on a free loopback port, configured as every
    /// replica of a default-options cluster is; `peers` is its dial table.
    fn vc_endpoint(index: u32, peers: Vec<(NodeId, SocketAddr)>) -> EvNodeEndpoint {
        let me = NodeId::vc(index);
        let cluster = TcpCluster {
            vc_addrs: Vec::new(),
            bb_addrs: Vec::new(),
            options: TcpOptions::default(),
        };
        EvNodeEndpoint::bind(
            me,
            SocketAddr::from(([127, 0, 0, 1], 0)),
            peers,
            cluster.ev_config(SEED, me),
        )
        .unwrap()
    }

    /// Replica to replica, as consensus traffic flows: the sender dials
    /// the sink on demand over an authenticated channel, and 100 frames
    /// arrive in send order. Each endpoint's loop is pumped only by its
    /// own receiver, so the sender keeps polling until the sink is done.
    #[test]
    fn loopback_pair_preserves_send_order() {
        let sink = vc_endpoint(0, Vec::new());
        let sender = vc_endpoint(1, vec![(NodeId::vc(0), sink.local_addr().unwrap())]);
        let done = AtomicBool::new(false);
        let received = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    sender.send(NodeId::vc(0), vote_msg(i));
                }
                while !done.load(Ordering::SeqCst) {
                    let _ = sender.recv_timeout(Duration::from_millis(10));
                }
            });
            let mut received = Vec::new();
            while received.len() < 100 {
                match sink.recv_timeout(Duration::from_secs(5)) {
                    Ok(env) => received.push((env.from, serial_of(&env.msg))),
                    Err(_) => break,
                }
            }
            done.store(true, Ordering::SeqCst);
            received
        });
        let expected: Vec<_> = (0..100).map(|i| (NodeId::vc(1), i)).collect();
        assert_eq!(received, expected, "frames lost or reordered");
        assert_eq!(sender.ev_stats().dials, 1);
        assert_eq!(sink.ev_stats().authenticated, 1);
    }

    /// An envelope a replica addresses to itself is delivered from its
    /// own inbox and never touches a socket.
    #[test]
    fn same_transport_delivery_is_local() {
        let ep = vc_endpoint(0, Vec::new());
        ep.send(NodeId::vc(0), vote_msg(9));
        let env = ep.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((env.from, env.to), (NodeId::vc(0), NodeId::vc(0)));
        assert_eq!(serial_of(&env.msg), 9);
        let stats = ep.ev_stats();
        assert_eq!((stats.dials, stats.accepted, stats.frames_out), (0, 0, 0));
    }

    /// The coordinator closes its connections in order when it shuts the
    /// cluster down: a replica reads the `Shutdown` sent just before,
    /// every time, even with frames to the coordinator still unread on
    /// the connection (closing over unread bytes sends a reset, which can
    /// destroy the `Shutdown` before the replica reads it).
    #[test]
    fn replica_reads_the_shutdown_sent_just_before_the_close() {
        for round in 0..10 {
            let replica = vc_endpoint(0, Vec::new());
            let cluster = TcpCluster {
                vc_addrs: vec![replica.local_addr().unwrap()],
                bb_addrs: Vec::new(),
                options: TcpOptions::default(),
            };
            let (sent_tx, sent) = std::sync::mpsc::channel();
            let serve = std::thread::spawn(move || {
                // lint:allow(wall-clock, test deadline over real sockets)
                let deadline = Instant::now() + Duration::from_secs(10);
                // lint:allow(wall-clock, test deadline over real sockets)
                while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                    let Ok(env) = replica.recv_timeout(left) else {
                        break;
                    };
                    match env.msg {
                        Msg::ClosePolls => {
                            for n in 0..50 {
                                replica.send(COORDINATOR, vote_msg(n));
                            }
                            let _ = sent_tx.send(());
                        }
                        Msg::Shutdown => return env.from == COORDINATOR,
                        _ => {}
                    }
                }
                false
            });
            let transport = client_transport(&cluster, SEED, COORDINATOR);
            let coordinator = transport.register(COORDINATOR).unwrap();
            coordinator.send(NodeId::vc(0), Msg::ClosePolls);
            // The replica has written frames the coordinator never reads
            // before the shutdown starts.
            sent.recv_timeout(Duration::from_secs(10)).unwrap();
            coordinator.send(NodeId::vc(0), Msg::Shutdown);
            coordinator.close(crate::election::SHUTDOWN_PATIENCE);
            transport.shutdown();
            assert!(
                serve.join().unwrap(),
                "round {round}: the replica never read the Shutdown"
            );
        }
    }

    /// A one-replica board: a `Full` set-up's board for it, the cluster,
    /// and the replica's main on a thread of its own.
    struct LoneBoard {
        init: BbInit,
        cluster: TcpCluster,
        replica: JoinHandle<std::io::Result<()>>,
    }

    impl LoneBoard {
        fn start() -> LoneBoard {
            let params = ElectionParams::new("lone-bb", 3, 2, 4, 1, 3, 2, 0, 60_000).unwrap();
            let init = ElectionAuthority::new(params.clone(), SEED)
                .setup(SetupProfile::Full)
                .bb_init;
            let cluster = TcpCluster::localhost_free(0, 1).unwrap();
            let replica = {
                let (params, cluster) = (params.clone(), cluster.clone());
                std::thread::spawn(move || run_bb_replica(&params, SEED, 0, &cluster))
            };
            LoneBoard {
                init,
                cluster,
                replica,
            }
        }

        /// A dial-out endpoint to the replica speaking as `party`.
        fn party(&self, party: NodeId) -> (AuthTransport, EvNodeEndpoint) {
            let transport = client_transport(&self.cluster, SEED, party);
            let endpoint = transport.register(party).unwrap();
            (transport, endpoint)
        }

        /// Stops the replica from `coordinator` and waits for its main to
        /// return.
        fn stop(self, coordinator: &EvNodeEndpoint) {
            coordinator.send(NodeId::bb(0), Msg::Shutdown);
            self.replica.join().unwrap().unwrap();
        }
    }

    /// Sends `msg` to the replica and returns its answer.
    fn ask(endpoint: &EvNodeEndpoint, msg: Msg) -> Msg {
        endpoint.send(NodeId::bb(0), msg);
        endpoint
            .recv_timeout(Duration::from_secs(10))
            .expect("the replica answers")
            .msg
    }

    fn deal(endpoint: &EvNodeEndpoint, chunk: &[u8]) -> BbDealOutcome {
        let chunk = Arc::new(chunk.to_vec());
        match ask(
            endpoint,
            Msg::BbDeal {
                request_id: 1,
                chunk,
            },
        ) {
            Msg::BbDealReply { outcome, .. } => outcome,
            other => panic!("{other:?}"),
        }
    }

    /// The bytes a read of the replica returns.
    fn read(endpoint: &EvNodeEndpoint) -> Arc<Vec<u8>> {
        match ask(endpoint, Msg::BbReadRequest { request_id: 2 }) {
            Msg::BbReadResponse { snapshot, .. } => snapshot,
            other => panic!("{other:?}"),
        }
    }

    /// Only the coordinator deals, and only this election's board: a
    /// header from a voter, or from the coordinator for other parameters,
    /// is refused and leaves the replica undealt — its reads stay empty —
    /// until the coordinator deals the right one.
    #[test]
    fn a_deal_from_a_voter_or_for_another_election_leaves_the_replica_undealt() {
        let board = LoneBoard::start();
        let chunks = deal_chunks(&board.init, usize::MAX).unwrap();
        let (_voters, voter) = board.party(NodeId::client(7));
        assert_eq!(deal(&voter, &chunks[0]), BbDealOutcome::Refused);
        let (_coordinators, coordinator) = board.party(COORDINATOR);
        let mut other = board.init.clone();
        other.params = ElectionParams::new("other", 3, 2, 4, 1, 3, 2, 0, 60_000).unwrap();
        let foreign = deal_chunks(&other, usize::MAX).unwrap();
        assert_eq!(deal(&coordinator, &foreign[0]), BbDealOutcome::Refused);
        // Nothing was taken: the ballots still need a header first.
        assert_eq!(deal(&coordinator, &chunks[1]), BbDealOutcome::Refused);
        assert!(
            read(&voter).is_empty(),
            "an undealt replica serves no board"
        );
        assert_eq!(deal(&coordinator, &chunks[0]), BbDealOutcome::Taken);
        assert_eq!(deal(&voter, &chunks[1]), BbDealOutcome::Refused);
        assert!(read(&voter).is_empty());
        assert_eq!(deal(&coordinator, &chunks[1]), BbDealOutcome::Dealt);
        assert!(!read(&voter).is_empty());
        board.stop(&coordinator);
    }

    /// Before its deal completes a replica refuses writes as `WrongPhase`
    /// and answers reads with an empty snapshot, at once and without
    /// keeping them; once dealt it verifies and serves as any replica does.
    /// A `Shutdown` from the coordinator ends an undealt replica too.
    #[test]
    fn early_traffic_is_refused_until_the_board_is_dealt() {
        let board = LoneBoard::start();
        let (_writers, writer) = board.party(NodeId::vc(0));
        let share = SignedShare {
            share: Share {
                index: 1,
                value: Scalar::ONE,
            },
            signature: SigningKey::from_scalar(Scalar::ONE).sign(b"not the EA"),
        };
        let write = |request_id| Msg::BbWrite {
            request_id,
            write: BbWriteMsg::MskShare { share },
        };
        let outcome = |msg| match msg {
            Msg::BbWriteReply { outcome, .. } => outcome,
            other => panic!("{other:?}"),
        };
        assert_eq!(outcome(ask(&writer, write(1))), BbWriteOutcome::WrongPhase);
        assert!(read(&writer).is_empty());
        let (_coordinators, coordinator) = board.party(COORDINATOR);
        assert_eq!(
            deal_board(&coordinator, &board.init, &board.cluster.options),
            Ok(1)
        );
        // Now the forged share meets the EA key.
        assert_eq!(
            outcome(ask(&writer, write(2))),
            BbWriteOutcome::BadSignature
        );
        let snapshot = ddemos_bb::codec::decode_snapshot(&read(&writer)).unwrap();
        assert!(snapshot.vote_set.is_none());
        board.stop(&coordinator);

        let undealt = LoneBoard::start();
        let (_coordinators, coordinator) = undealt.party(COORDINATOR);
        assert!(read(&coordinator).is_empty());
        undealt.stop(&coordinator);
    }
}
