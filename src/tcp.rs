//! Multi-process elections over TCP sockets.
//!
//! The paper's prototype runs every VC and BB replica as its own
//! networked process (§V). This module is that process topology for the
//! reproduction: a [`TcpCluster`] names the listen address of every
//! replica, [`run_vc_replica`] / [`run_bb_replica`] are the blocking
//! replica mains, and
//! `ElectionBuilder::network(Network::Tcp(cluster))` builds an
//! [`crate::Election`] whose phase handles drive the remote cluster:
//! voters cast over sockets, and `tally()` and `audit()` run against a
//! majority read of `Msg::BbReadResponse`s. The coordinator speaks to the
//! replicas exactly as it does in process — `ClosePolls`, `Finalized`,
//! `Shutdown` from and to [`COORDINATOR`], BB writes and reads through
//! its `ddemos_bb::RemoteBb` clients — over its own dialed connections
//! instead of the simulated network.
//!
//! Every party — replica, coordinator, BB client, voter — is one
//! [`EvNodeEndpoint`] over its own epoll event loop, and every connection
//! runs the seeded [`ddemos_net::auth`] handshake, so an envelope's
//! source is the channel's authenticated identity, never what a frame
//! claims. A replica's loop serves its listener; the coordinator and the
//! voters have none: their endpoints ([`AuthTransport`]) dial out and
//! replicas answer over those connections. Every
//! replica takes `ClosePolls`/`Shutdown` from [`COORDINATOR`] alone — but
//! all parties share one channel secret, so anyone holding it can still
//! handshake as the coordinator until per-node keys replace it.
//!
//! The replicas run the *same* drivers (`ddemos_vc::node::spawn`,
//! `ddemos_bb::node::serve`) over the same sans-I/O cores (`VcCore`,
//! `BbCore`) as the in-process simulation — only the endpoint differs —
//! which is what
//! makes the same-seed TCP and in-process runs produce identical tallies,
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

use ddemos_bb::BbNode;
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_net::auth::{seeded_secret, AuthConfig};
use ddemos_net::evloop::EvConfig;
use ddemos_net::{AuthTransport, EvNodeEndpoint};
use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::exec::Pool;
use ddemos_protocol::{ElectionParams, NodeId, COORDINATOR};
use ddemos_vc::{MemoryStore, VcNodeConfig};
use std::net::SocketAddr;

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
    /// A localhost cluster on consecutive ports starting at `base_port`:
    /// VC `i` at `base_port + i`, BB `j` after the VCs.
    pub fn localhost(base_port: u16, num_vc: usize, num_bb: usize) -> TcpCluster {
        let addr = |offset: u16| SocketAddr::from(([127, 0, 0, 1], base_port + offset));
        TcpCluster {
            vc_addrs: (0..num_vc as u16).map(addr).collect(),
            bb_addrs: (0..num_bb as u16)
                .map(|j| addr(num_vc as u16 + j))
                .collect(),
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
    // Dialable peers are the *other replicas* (they have listeners).
    // The coordinator and the voters have none: they connect in, and
    // their authenticated channels carry the finalized sets and receipts
    // back out.
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

/// Runs one BB replica to completion: [`ddemos_bb::node::serve`], the
/// loop every in-process replica runs too, over the replica's listener,
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
    // A BB replica never dials anyone: every client (the coordinator's
    // `RemoteBb` clients, auditors) connects in.
    let endpoint = EvNodeEndpoint::bind(
        me,
        cluster.bb_addrs[index as usize],
        Vec::new(),
        cluster.ev_config(seed, me),
    )?;
    ddemos_bb::node::serve(&node, &endpoint);
    Ok(())
}

/// The coordinator's dial-out transport to a remote cluster (held by
/// [`crate::Election`] in TCP mode). Nothing is dialed until the first
/// send.
pub(crate) fn coordinator_transport(cluster: &TcpCluster, seed: u64) -> AuthTransport {
    AuthTransport::new(
        cluster.replicas(),
        cluster.auth_config(seed),
        process_nonce_seed(COORDINATOR),
    )
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_net::TransportEndpoint;
    use ddemos_protocol::messages::Msg;
    use ddemos_protocol::SerialNo;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

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
        let cluster = TcpCluster::localhost(0, 0, 0);
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
            let transport = coordinator_transport(&cluster, SEED);
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
}
