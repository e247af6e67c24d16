//! The one socket endpoint, for replicas and clients alike.
//!
//! Every party of a TCP deployment wants exactly one thing from its
//! network: a [`TransportEndpoint`]. This module provides it over an
//! owned [`EvLoop`]: one epoll instance serving every authenticated
//! connection of the endpoint — for a replica its listener, inbound
//! voters and coordinator control channels and outbound
//! replica-to-replica consensus dials; for a client (the coordinator, a
//! BB client, a voter) the connections it dials — with **no thread per
//! peer** and flat per-connection memory. The loop is pumped by whichever
//! thread calls `recv_timeout` / `try_recv` (or, on a client, `send`).
//! The unchanged `VcDriver` / BB serve loop runs on top, which is what
//! keeps a same-seed election through this endpoint byte-identical to
//! the in-process run: the cores never see a different input order than
//! their own envelope stream.
//!
//! Routing is identity-based: every handshake (`EvEvent::Up`) binds a
//! connection to its authenticated [`NodeId`], and sends look the
//! target up in that route table first, falling back to a dial against
//! the static peer table. A connect that is refused (a replica still
//! binding) never holds up the send: its envelopes queue, in order, and
//! the pump retries the connect every `DIAL_RETRY` until
//! `DIAL_DEADLINE`. A connection the peer rejects or closes is retired,
//! and the next send re-dials it with a fresh handshake. An envelope
//! addressed to the node itself never touches a socket: it goes straight
//! to the node's own inbox. A peer without a listener (the coordinator,
//! voters) is reachable exactly while its own connection is up — which
//! is the shape the protocol needs: replies to a party without a listener
//! (a voter's receipt, a board read's snapshot) travel back over that
//! party's own channel.
//!
//! A client endpoint ([`AuthTransport::register`]) has no listener, so
//! nothing reaches it unless it dials; its caller may send and then wait
//! on something else entirely. So a client's `send` completes the
//! handshake of the connection it writes to before returning (the
//! connect itself is never retried inline), and its connections live
//! exactly as long as the endpoint: a voter's ends with its cast, and the
//! replica frees the slot at once. Inbound envelopes carry the channel
//! identity of the dialed replica, never the `Envelope::from` a frame
//! claims.

use crate::auth::AuthConfig;
use crate::evloop::{ConnId, EvConfig, EvEvent, EvLoop, EvStats};
use crate::stats::NetStats;
use crate::transport::TransportEndpoint;
use crossbeam_channel::{RecvError, RecvTimeoutError};
use ddemos_crypto::hmac::Prf;
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::NodeId;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a dial keeps retrying a refused connect, and a client's
/// send waits for a handshake, before the envelopes are dropped
/// (best-effort, like a lossy network).
const DIAL_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between connect retries while a replica is still binding.
const DIAL_RETRY: Duration = Duration::from_millis(50);
/// The longest one wait on the loop lasts, so a blocked receive sees
/// its transport shut down within it.
const READ_POLL: Duration = Duration::from_millis(100);

/// What the endpoints of one transport share.
#[derive(Default)]
struct Sink {
    /// Messages sent, delivered and dropped.
    stats: NetStats,
    /// Connection counters, summed over the endpoints.
    conns: Mutex<EvStats>,
    /// Set by [`AuthTransport::shutdown`].
    down: AtomicBool,
}

/// A [`TransportEndpoint`] owning an [`EvLoop`]: a replica's single
/// readiness loop, or a client's.
pub struct EvNodeEndpoint {
    id: NodeId,
    /// The listener's address; `None` for a client.
    local: Option<SocketAddr>,
    inner: Mutex<Inner>,
    start: Instant,
}

struct Inner {
    me: NodeId,
    lp: EvLoop,
    /// Static peer table (replicas with listeners) for dial-on-demand.
    peers: HashMap<NodeId, SocketAddr>,
    /// Authenticated identity → live connection.
    routes: HashMap<NodeId, ConnId>,
    /// Peers whose connect was refused, retried by the pump.
    redials: HashMap<NodeId, Redial>,
    /// Envelopes surfaced by the loop, pending receipt.
    inbox: VecDeque<Envelope>,
    /// Scratch event buffer (reused across polls).
    events: Vec<EvEvent>,
    /// The poller failed; receivers see `Disconnected` once the inbox
    /// is drained.
    dead: bool,
    sink: Arc<Sink>,
    /// The loop's counters as last folded into the sink.
    reported: EvStats,
}

/// A dial waiting for its peer's listener.
struct Redial {
    /// What was sent to the peer meanwhile, in send order.
    queue: Vec<Envelope>,
    next: Instant,
    deadline: Instant,
}

impl EvNodeEndpoint {
    /// Binds the replica's listener and wraps the loop. `peers` is the
    /// static table of dialable nodes (other replicas); peers without
    /// listeners reach this node by connecting in.
    ///
    /// # Errors
    /// Loop creation (always fails off Linux) or bind failures.
    pub fn bind(
        id: NodeId,
        listen: SocketAddr,
        peers: Vec<(NodeId, SocketAddr)>,
        cfg: EvConfig,
    ) -> io::Result<EvNodeEndpoint> {
        let mut lp = EvLoop::new(cfg)?;
        let local = lp.listen(listen, id)?;
        Ok(Self::over(id, Some(local), lp, peers, Arc::default()))
    }

    fn over(
        id: NodeId,
        local: Option<SocketAddr>,
        lp: EvLoop,
        peers: Vec<(NodeId, SocketAddr)>,
        sink: Arc<Sink>,
    ) -> EvNodeEndpoint {
        EvNodeEndpoint {
            id,
            local,
            inner: Mutex::new(Inner {
                me: id,
                lp,
                peers: peers.into_iter().collect(),
                routes: HashMap::new(),
                redials: HashMap::new(),
                inbox: VecDeque::new(),
                events: Vec::new(),
                dead: false,
                sink,
                reported: EvStats::default(),
            }),
            // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
            start: Instant::now(),
        }
    }

    /// The address the listener is bound to (`None` for a client).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local
    }

    /// Loop counter snapshot (connections, handshakes, sheds, frames).
    pub fn ev_stats(&self) -> EvStats {
        self.inner.lock().lp.stats()
    }

    /// Attaches a metrics recorder to the owned loop (frame
    /// encode/decode timing).
    pub fn set_recorder(&self, recorder: ddemos_obs::Recorder) {
        self.inner.lock().lp.set_recorder(recorder);
    }

    /// Stands in for a failed poller.
    #[cfg(test)]
    pub(crate) fn kill_poller(&self) {
        self.inner.lock().dead = true;
    }
}

impl Inner {
    /// One poll pass: retry the refused dials that are due, surface
    /// frames into the inbox, maintain routes.
    fn pump(&mut self, timeout: Duration) {
        if self.dead {
            return;
        }
        self.redial();
        let timeout = if self.redials.is_empty() {
            timeout
        } else {
            timeout.min(DIAL_RETRY)
        };
        let mut events = std::mem::take(&mut self.events);
        if self.lp.poll(Some(timeout), &mut events).is_err() {
            self.dead = true;
        }
        for ev in events.drain(..) {
            match ev {
                EvEvent::Up { conn, peer, .. } => {
                    // Latest handshake wins: a reconnecting peer
                    // supersedes its dead route.
                    self.routes.insert(peer, conn);
                }
                EvEvent::Frame { env, .. } => {
                    self.sink.stats.record_delivered(0);
                    self.inbox.push_back(env);
                }
                EvEvent::Down { conn, peer, .. } => {
                    if let Some(peer) = peer {
                        if self.routes.get(&peer) == Some(&conn) {
                            self.routes.remove(&peer);
                        }
                    }
                }
            }
        }
        self.events = events;
        self.report();
    }

    /// Hands `env` to a connection to its target — the live route, else
    /// a fresh dial — and returns that connection. Outbound dials
    /// register their route immediately: the channel queues envelopes
    /// until its handshake completes, so sends never race the `Up`
    /// event. A refused dial queues the envelope for the pump instead.
    fn deliver(&mut self, env: Envelope) -> Option<ConnId> {
        let to = env.to;
        if let Some(redial) = self.redials.get_mut(&to) {
            redial.queue.push(env);
            return None;
        }
        if let Some(&conn) = self.routes.get(&to) {
            if self.lp.send(conn, &env).is_ok() {
                return Some(conn);
            }
            // Stale route (the peer vanished between polls): retire it
            // and re-dial.
            self.routes.remove(&to);
        }
        let Some(&addr) = self.peers.get(&to) else {
            // No live route and no listener to dial: best-effort drop,
            // like a lossy network.
            self.sink.stats.record_dropped();
            return None;
        };
        let Ok(conn) = self.lp.connect(addr, self.me, to) else {
            // lint:allow(wall-clock, real-transport redial timing; the sim path never dials)
            let now = Instant::now();
            let redial = Redial {
                queue: vec![env],
                next: now + DIAL_RETRY,
                deadline: now + DIAL_DEADLINE,
            };
            self.redials.insert(to, redial);
            return None;
        };
        self.routes.insert(to, conn);
        if self.lp.send(conn, &env).is_err() {
            self.sink.stats.record_dropped();
        }
        Some(conn)
    }

    /// Retries the refused dials that are due. A dial that connects
    /// gets its queue in order; one past its deadline, or any once the
    /// transport is down, drops its envelopes.
    fn redial(&mut self) {
        let Inner {
            me,
            lp,
            peers,
            routes,
            redials,
            sink,
            ..
        } = self;
        if redials.is_empty() {
            return;
        }
        // lint:allow(wall-clock, real-transport redial timing; the sim path never dials)
        let now = Instant::now();
        let down = sink.down.load(Ordering::SeqCst);
        redials.retain(|&to, redial| {
            if !down && now < redial.next {
                return true;
            }
            let conn = match peers.get(&to) {
                Some(&addr) if !down => lp.connect(addr, *me, to).ok(),
                _ => None,
            };
            if let Some(conn) = conn {
                routes.insert(to, conn);
                for env in redial.queue.drain(..) {
                    if lp.send(conn, &env).is_err() {
                        sink.stats.record_dropped();
                    }
                }
                return false;
            }
            if !down && now < redial.deadline {
                redial.next = now + DIAL_RETRY;
                return true;
            }
            for _ in &redial.queue {
                sink.stats.record_dropped();
            }
            false
        });
    }

    /// Pumps until `conn` has completed its handshake, for at most
    /// [`DIAL_DEADLINE`]; a connection that ends first took the
    /// envelope just handed to it along.
    fn await_handshake(&mut self, conn: ConnId) {
        // lint:allow(wall-clock, real-transport handshake deadline; the sim path has none)
        let deadline = Instant::now() + DIAL_DEADLINE;
        loop {
            match self.lp.handshake_done(conn) {
                Some(true) => return,
                None => return self.sink.stats.record_dropped(),
                Some(false) => {}
            }
            // lint:allow(wall-clock, real-transport handshake deadline; the sim path has none)
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.disconnected() {
                return;
            }
            self.pump(left.min(READ_POLL));
        }
    }

    /// Whether receivers see `Disconnected` once the inbox is drained:
    /// the poller failed or the transport shut down.
    fn disconnected(&self) -> bool {
        self.dead || self.sink.down.load(Ordering::SeqCst)
    }

    /// Folds what the loop counted since the last report into the
    /// transport's counters.
    fn report(&mut self) {
        let now = self.lp.stats();
        let mut total = self.sink.conns.lock();
        let deltas = now.counters().into_iter().zip(self.reported.counters());
        for ((_, sum), ((_, n), (_, seen))) in total.counters_mut().into_iter().zip(deltas) {
            *sum += n - seen;
        }
        total.note_frames((
            now.largest_frame_in as usize,
            now.largest_frame_out as usize,
        ));
        self.reported = now;
    }

    /// Ends everything: queued redials are dropped, every connection
    /// closes, what arrived is discarded and the counters are folded in.
    fn discard(&mut self) {
        for (_, redial) in self.redials.drain() {
            for _ in redial.queue {
                self.sink.stats.record_dropped();
            }
        }
        self.lp.close_all();
        self.routes.clear();
        self.inbox.clear();
        self.report();
    }
}

impl Drop for EvNodeEndpoint {
    fn drop(&mut self) {
        self.inner.lock().discard();
    }
}

impl TransportEndpoint for EvNodeEndpoint {
    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, msg: Msg) {
        let env = Envelope {
            from: self.id,
            to,
            msg,
        };
        let mut inner = self.inner.lock();
        inner.sink.stats.record_sent(&env.msg);
        if to == self.id {
            // A node is its own peer in every multicast (a collector
            // counts its own receipt share and consensus votes): loop the
            // envelope back into the inbox, as SimNet does.
            inner.sink.stats.record_delivered(0);
            inner.inbox.push_back(env);
            return;
        }
        if self.local.is_some() {
            inner.deliver(env);
        } else {
            // A client's caller may send and then wait on something else
            // entirely. So take in what already arrived first, so that a
            // connection the peer has closed is re-dialed rather than
            // written into, and leave the frame on the wire.
            if inner.lp.live_conns() > 0 {
                inner.pump(Duration::ZERO);
            }
            if let Some(conn) = inner.deliver(env) {
                inner.await_handshake(conn);
            }
        }
        inner.report();
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        loop {
            match self.recv_timeout(Duration::from_secs(3600)) {
                Ok(env) => return Ok(env),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(RecvError),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        // Polls at least once, so a zero timeout still reads the wire.
        let mut polled = false;
        loop {
            if let Some(env) = inner.inbox.pop_front() {
                return Ok(env);
            }
            if inner.disconnected() {
                return Err(RecvTimeoutError::Disconnected);
            }
            // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
            let remaining = deadline.saturating_duration_since(Instant::now());
            if polled && remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.pump(remaining.min(READ_POLL));
            polled = true;
        }
    }

    fn try_recv(&self) -> Option<Envelope> {
        let mut inner = self.inner.lock();
        if inner.inbox.is_empty() {
            inner.pump(Duration::ZERO);
        }
        inner.inbox.pop_front()
    }

    fn read_pending(&self) -> usize {
        self.inner.lock().inbox.len()
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Half-closes every connection once its handshake is done and its
    /// queue has drained ([`EvLoop::half_close`]), and reads until every
    /// peer has closed its side too and every queued redial is resolved,
    /// or `patience` runs out; then closes what is left and discards
    /// what arrived.
    fn close(&self, patience: Duration) {
        // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
        let deadline = Instant::now() + patience;
        let mut inner = self.inner.lock();
        inner.lp.half_close();
        while inner.lp.live_conns() > 0 || !inner.redials.is_empty() {
            // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            if inner.disconnected() {
                break;
            }
            inner.pump(left.min(READ_POLL));
        }
        inner.discard();
    }
}

/// The client side of a TCP deployment: it hands out listener-less
/// [`EvNodeEndpoint`]s that dial a static peer table of replicas. Each
/// endpoint owns its loop and sockets; the transport keeps what they
/// share — the peer table, a distinct handshake-nonce seed for each, the
/// counters they fold into, and the shutdown flag.
pub struct AuthTransport {
    peers: Vec<(NodeId, SocketAddr)>,
    auth: AuthConfig,
    seeds: Mutex<(Prf, u64)>,
    sink: Arc<Sink>,
}

impl AuthTransport {
    /// Creates the transport over a peer table. `nonce_seed` feeds the
    /// handshake nonces of every endpoint (any unique-per-process value
    /// works; nonce reuse only weakens replay protection across *this
    /// process's own* reconnects).
    pub fn new(
        peers: Vec<(NodeId, SocketAddr)>,
        auth: AuthConfig,
        nonce_seed: [u8; 32],
    ) -> AuthTransport {
        AuthTransport {
            peers,
            auth,
            seeds: Mutex::new((Prf::new(nonce_seed).derive(b"client.nonce-seed"), 0)),
            sink: Arc::default(),
        }
    }

    /// Message counters (sent/delivered/dropped), like any transport's.
    pub fn stats(&self) -> &NetStats {
        &self.sink.stats
    }

    /// Connection counters summed over every endpoint of this transport,
    /// closed ones included.
    pub fn conn_counters(&self) -> EvStats {
        *self.sink.conns.lock()
    }

    /// Registers a client identity, returning its endpoint. Its loop
    /// derives its handshake nonces from a seed of its own, so no two
    /// endpoints of the transport send the same nonce.
    ///
    /// # Errors
    /// Loop creation (always fails off Linux).
    pub fn register(&self, id: NodeId) -> io::Result<EvNodeEndpoint> {
        let nonce_seed = {
            let mut seeds = self.seeds.lock();
            seeds.1 += 1;
            seeds.0.bytes32(b"endpoint", seeds.1)
        };
        let lp = EvLoop::new(EvConfig::new(self.auth.clone(), nonce_seed))?;
        let peers = self.peers.clone();
        Ok(EvNodeEndpoint::over(id, None, lp, peers, self.sink.clone()))
    }

    /// Ends the transport: every endpoint's receive reports
    /// `Disconnected` once its inbox is drained, and redials stop.
    /// Sockets close with the endpoints that own them.
    pub fn shutdown(&self) {
        self.sink.down.store(true, Ordering::SeqCst);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::auth::{seeded_secret, RejectCode, ServerChannel};
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_protocol::{NodeKind, SerialNo};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;

    /// How long any one expected envelope or event may take.
    const PATIENCE: Duration = Duration::from_secs(10);

    fn nid(kind: NodeKind, index: u32) -> NodeId {
        NodeId { kind, index }
    }

    fn vote(n: u64) -> Msg {
        Msg::Vote {
            request_id: n,
            serial: SerialNo(n),
            vote_code: VoteCode([0; 20]),
        }
    }

    fn serial(msg: &Msg) -> u64 {
        match msg {
            Msg::Vote { serial, .. } => serial.0,
            other => panic!("unexpected message {}", other.kind()),
        }
    }

    /// A loopback address nobody listens on (yet).
    fn free_addr() -> SocketAddr {
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind");
        probe.local_addr().expect("addr")
    }

    /// An `EvLoop` server on a loopback port, polled on its own thread
    /// until dropped. `on` handles each event (reply, reject, close);
    /// the event then goes on to the test through `events`.
    struct Server {
        id: NodeId,
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        events: mpsc::Receiver<EvEvent>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Server {
        fn start(
            auth: &AuthConfig,
            id: NodeId,
            mut on: impl FnMut(&mut EvLoop, &EvEvent) + Send + 'static,
        ) -> Server {
            let mut lp = EvLoop::new(EvConfig::new(auth.clone(), [9u8; 32])).expect("evloop");
            let addr = lp
                .listen("127.0.0.1:0".parse().expect("addr"), id)
                .expect("listen");
            let stop = Arc::new(AtomicBool::new(false));
            let (tx, events) = mpsc::channel();
            let stopped = stop.clone();
            let thread = std::thread::spawn(move || {
                let mut batch = Vec::new();
                while !stopped.load(Ordering::SeqCst) {
                    lp.poll(Some(Duration::from_millis(5)), &mut batch)
                        .expect("poll");
                    for ev in batch.drain(..) {
                        on(&mut lp, &ev);
                        let _ = tx.send(ev);
                    }
                }
            });
            Server {
                id,
                addr,
                stop,
                events,
                thread: Some(thread),
            }
        }

        /// The first event `want` accepts, skipping the others, if one
        /// comes within `patience`.
        fn wait_for(&self, patience: Duration, want: impl Fn(&EvEvent) -> bool) -> Option<EvEvent> {
            let deadline = Instant::now() + patience;
            loop {
                let left = deadline.checked_duration_since(Instant::now())?;
                let ev = self.events.recv_timeout(left).ok()?;
                if want(&ev) {
                    return Some(ev);
                }
            }
        }
    }

    impl Drop for Server {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(thread) = self.thread.take() {
                let joined = thread.join();
                // A second panic while a failed test unwinds would abort.
                if !std::thread::panicking() {
                    joined.expect("server thread");
                }
            }
        }
    }

    /// Echoes every frame to its sender under a claimed identity the
    /// client must override with the channel's.
    fn echo(lp: &mut EvLoop, ev: &EvEvent) {
        if let EvEvent::Frame { conn, env } = ev {
            let reply = Envelope {
                from: nid(NodeKind::Trustee, 99),
                to: env.from,
                msg: env.msg.clone(),
            };
            let _ = lp.send(*conn, &reply);
        }
    }

    /// A client endpoint completes the handshake against an EvLoop
    /// server, the server sees the channel-derived identity, and an
    /// echoed envelope comes back stamped with the *server's* identity
    /// regardless of what the wire frame claimed.
    #[test]
    fn client_round_trips_through_evloop_server() {
        let auth = AuthConfig::new(seeded_secret(42));
        let client_id = nid(NodeKind::Client, 7);
        let server = Server::start(&auth, nid(NodeKind::Vc, 0), echo);
        let transport = AuthTransport::new(vec![(server.id, server.addr)], auth, [3u8; 32]);
        let ep = transport.register(client_id).expect("client");
        ep.send(server.id, Msg::ClosePolls);
        let echoed = ep.recv_timeout(PATIENCE).expect("echo reply");
        // The claimed Trustee identity is discarded: the channel knows
        // who it authenticated.
        assert_eq!(echoed.from, server.id);
        assert!(matches!(echoed.msg, Msg::ClosePolls));

        let up = server.wait_for(PATIENCE, |ev| matches!(ev, EvEvent::Up { .. }));
        assert!(matches!(up, Some(EvEvent::Up { peer, .. }) if peer == client_id));
        let snap = transport.conn_counters();
        assert_eq!(
            (snap.dials, snap.authenticated, snap.auth_failed),
            (1, 1, 0)
        );
        transport.shutdown();
    }

    /// A client with the wrong cluster secret never authenticates and
    /// the send is dropped (best-effort), counted as a failed handshake.
    #[test]
    fn client_with_wrong_secret_fails_auth() {
        let server_auth = AuthConfig::new(seeded_secret(42));
        let server = Server::start(&server_auth, nid(NodeKind::Vc, 0), |_, _| {});
        let wrong = AuthConfig::new(seeded_secret(43));
        let transport = AuthTransport::new(vec![(server.id, server.addr)], wrong, [3u8; 32]);
        let ep = transport
            .register(nid(NodeKind::Client, 1))
            .expect("client");
        ep.send(server.id, Msg::ClosePolls);
        let snap = transport.conn_counters();
        assert_eq!(snap.authenticated, 0);
        assert_eq!(snap.auth_failed, 1);
        assert_eq!(transport.stats().dropped(), 1);
    }

    /// Dropping an endpoint closes its socket: the server sees the
    /// connection go down at once, not when the transport shuts down.
    #[test]
    fn dropping_the_endpoint_closes_its_connection() {
        let auth = AuthConfig::new(seeded_secret(42));
        let server = Server::start(&auth, NodeId::vc(0), |_, _| {});
        let transport = AuthTransport::new(vec![(server.id, server.addr)], auth, [3u8; 32]);
        let ep = transport.register(NodeId::client(7)).expect("client");
        ep.send(server.id, vote(0));
        let Some(EvEvent::Frame { conn, .. }) =
            server.wait_for(PATIENCE, |ev| matches!(ev, EvEvent::Frame { .. }))
        else {
            panic!("the server never got the frame");
        };
        let dropped = Instant::now();
        drop(ep);
        let down = server.wait_for(
            Duration::from_secs(1),
            |ev| matches!(ev, EvEvent::Down { conn: c, .. } if *c == conn),
        );
        assert!(
            down.is_some(),
            "no Down within 1 s of the drop ({:?} waited)",
            dropped.elapsed()
        );
        let snap = transport.conn_counters();
        assert_eq!((snap.dials, snap.closed), (1, 1));
    }

    /// One endpoint talks to three servers at once, interleaved, as the
    /// coordinator does: every reply carries the identity of the server
    /// whose channel it came over, in that server's send order.
    #[test]
    fn one_endpoint_keeps_three_servers_apart() {
        let auth = AuthConfig::new(seeded_secret(42));
        let servers: Vec<Server> = (0..3)
            .map(|i| Server::start(&auth, NodeId::vc(i), echo))
            .collect();
        let peers = servers.iter().map(|s| (s.id, s.addr)).collect();
        let transport = AuthTransport::new(peers, auth, [3u8; 32]);
        let ep = transport.register(NodeId::client(0)).expect("client");
        for n in 0..10 {
            for server in &servers {
                ep.send(server.id, vote(n));
            }
        }
        let mut got: HashMap<NodeId, Vec<u64>> = HashMap::new();
        for _ in 0..30 {
            let env = ep.recv_timeout(PATIENCE).expect("echo");
            got.entry(env.from).or_default().push(serial(&env.msg));
        }
        for server in &servers {
            assert_eq!(got.get(&server.id), Some(&(0..10).collect::<Vec<_>>()));
        }
        assert!(ep.try_recv().is_none(), "a reply came twice");
        let snap = transport.conn_counters();
        assert_eq!((snap.dials, snap.authenticated, snap.closed), (3, 3, 0));
    }

    /// Writes everything a server channel has queued.
    fn flush(sock: &mut TcpStream, chan: &mut ServerChannel) {
        let n = chan.outgoing().len();
        sock.write_all(chan.outgoing()).expect("write");
        chan.advance_out(n);
    }

    /// A frame the server writes in the same write as its accept lands
    /// in the handshake's last read, and a frame written in two halves
    /// arrives over two reads; each is delivered exactly once. The server
    /// is a bare socket under its own channel state machine, so the test
    /// decides where the bytes split.
    #[test]
    fn frames_behind_the_accept_or_split_across_reads_arrive_once() {
        let auth = AuthConfig::new(seeded_secret(42));
        let server_id = NodeId::vc(0);
        let client_id = NodeId::client(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server_auth = auth.clone();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut chan = ServerChannel::new(server_auth, [5u8; 16]);
            let mut events = Vec::new();
            let mut buf = [0u8; 4096];
            flush(&mut sock, &mut chan);
            while chan.peer().is_none() {
                let n = sock.read(&mut buf).expect("read");
                chan.on_bytes(&buf[..n], &mut events);
            }
            let reply = |n| Envelope {
                from: server_id,
                to: client_id,
                msg: vote(n),
            };
            // The accept and frame 1 leave in one write.
            chan.send_envelope(&reply(1)).expect("frame 1");
            flush(&mut sock, &mut chan);
            // Frame 2 leaves in two halves with a pause between them.
            chan.send_envelope(&reply(2)).expect("frame 2");
            let bytes = chan.outgoing().to_vec();
            chan.advance_out(bytes.len());
            let (head, tail) = bytes.split_at(bytes.len() / 2);
            sock.write_all(head).expect("write");
            std::thread::sleep(Duration::from_millis(50));
            sock.write_all(tail).expect("write");
            // Hold the connection until the client closes it.
            while matches!(sock.read(&mut buf), Ok(n) if n > 0) {}
        });

        let transport = AuthTransport::new(vec![(server_id, addr)], auth, [3u8; 32]);
        let ep = transport.register(client_id).expect("client");
        ep.send(server_id, vote(0));
        assert_eq!(ep.read_pending(), 1, "frame 1 came in with the accept");
        let first = ep.recv_timeout(PATIENCE).expect("frame 1");
        let second = ep.recv_timeout(PATIENCE).expect("frame 2");
        assert_eq!((first.from, serial(&first.msg)), (server_id, 1));
        assert_eq!((second.from, serial(&second.msg)), (server_id, 2));
        assert_eq!(
            ep.recv_timeout(Duration::from_millis(200)).err(),
            Some(RecvTimeoutError::Timeout)
        );
        drop(ep);
        server.join().expect("server thread");
    }

    /// A connection the server rejects or closes is retired, and the next
    /// send re-dials it with a fresh handshake.
    #[test]
    fn a_rejected_or_closed_connection_is_redialed() {
        for reject in [true, false] {
            let auth = AuthConfig::new(seeded_secret(42));
            let server = Server::start(&auth, NodeId::vc(0), move |lp, ev| match ev {
                EvEvent::Frame { conn, env } if serial(&env.msg) == 0 => {
                    if reject {
                        lp.reject(*conn, RejectCode::ShuttingDown);
                    } else {
                        lp.close(*conn);
                    }
                }
                _ => echo(lp, ev),
            });
            let transport = AuthTransport::new(vec![(server.id, server.addr)], auth, [3u8; 32]);
            let ep = transport.register(NodeId::client(2)).expect("client");
            ep.send(server.id, vote(0));
            // Waiting reads the reject or the EOF and retires the
            // connection.
            assert_eq!(
                ep.recv_timeout(Duration::from_millis(300)).err(),
                Some(RecvTimeoutError::Timeout)
            );
            ep.send(server.id, vote(1));
            let env = ep
                .recv_timeout(PATIENCE)
                .expect("echo over the new connection");
            assert_eq!((env.from, serial(&env.msg)), (server.id, 1));
            let snap = transport.conn_counters();
            assert_eq!(
                (snap.dials, snap.authenticated, snap.closed, snap.rejected),
                (2, 2, 1, u64::from(reject)),
                "reject={reject}"
            );
        }
    }

    /// `try_recv` on an idle connection returns at once instead of
    /// waiting out a poll slice.
    #[test]
    fn try_recv_on_an_idle_connection_does_not_wait() {
        let auth = AuthConfig::new(seeded_secret(42));
        let server = Server::start(&auth, NodeId::vc(0), echo);
        let transport = AuthTransport::new(vec![(server.id, server.addr)], auth, [3u8; 32]);
        let ep = transport.register(NodeId::client(3)).expect("client");
        ep.send(server.id, vote(0));
        ep.recv_timeout(PATIENCE).expect("echo");
        let asked = Instant::now();
        assert!(ep.try_recv().is_none());
        assert!(
            asked.elapsed() < READ_POLL / 2,
            "try_recv waited {:?}",
            asked.elapsed()
        );
    }

    /// A send to an address nobody listens on returns at once: the
    /// refused connect is retried on the pump, never inside `send`.
    #[test]
    fn a_send_to_a_closed_port_does_not_wait() {
        let auth = AuthConfig::new(seeded_secret(42));
        let transport = AuthTransport::new(vec![(NodeId::vc(0), free_addr())], auth, [3u8; 32]);
        let ep = transport.register(NodeId::client(1)).expect("client");
        let asked = Instant::now();
        ep.send(NodeId::vc(0), vote(0));
        let waited = asked.elapsed();
        assert!(waited < Duration::from_millis(50), "send waited {waited:?}");
        assert_eq!(transport.conn_counters().retries, 1);
        transport.shutdown();
    }

    /// A server that binds 300 ms after the first send still receives
    /// that envelope and the next one, in send order: the pump redials
    /// until the listener is up.
    #[test]
    fn a_server_that_binds_late_gets_every_envelope_in_order() {
        let auth = AuthConfig::new(seeded_secret(42));
        let addr = free_addr();
        let server_auth = auth.clone();
        let (done_tx, done) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let cfg = EvConfig::new(server_auth, [9u8; 32]);
            let ep = EvNodeEndpoint::bind(NodeId::vc(0), addr, Vec::new(), cfg).expect("bind");
            let got: Vec<u64> = (0..2)
                .map(|_| serial(&ep.recv_timeout(PATIENCE).expect("envelope").msg))
                .collect();
            ep.send(NodeId::client(1), vote(3));
            // Serve until the client has the reply.
            while done.try_recv().is_err() {
                let _ = ep.recv_timeout(Duration::from_millis(5));
            }
            got
        });
        let transport = AuthTransport::new(vec![(NodeId::vc(0), addr)], auth, [3u8; 32]);
        let ep = transport.register(NodeId::client(1)).expect("client");
        ep.send(NodeId::vc(0), vote(1));
        ep.send(NodeId::vc(0), vote(2));
        let reply = ep
            .recv_timeout(PATIENCE)
            .expect("reply once the server is up");
        assert_eq!(serial(&reply.msg), 3);
        done_tx.send(()).expect("server waits");
        assert_eq!(server.join().expect("server thread"), vec![1, 2]);
        let snap = transport.conn_counters();
        assert_eq!((snap.dials, snap.authenticated), (1, 1));
        assert!(snap.retries > 0, "the first connect was refused");
    }

    /// A 2 MiB envelope — more than the default write cap — crosses from
    /// a client to a replica endpoint, and the replica's 2 MiB reply comes
    /// back over the same connection.
    #[test]
    fn a_frame_larger_than_the_write_cap_crosses_both_ways() {
        let auth = AuthConfig::new(seeded_secret(42));
        let cfg = EvConfig::new(auth.clone(), [9u8; 32]);
        let big = vec![7u8; 2 << 20];
        assert!(big.len() > cfg.write_cap);
        let server = EvNodeEndpoint::bind(
            NodeId::bb(0),
            "127.0.0.1:0".parse().expect("addr"),
            Vec::new(),
            cfg,
        )
        .expect("bind");
        let addr = server.local_addr().expect("listener");
        let stop = AtomicBool::new(false);
        let (reply, client) = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(env) = server.recv_timeout(Duration::from_millis(5)) {
                        server.send(env.from, env.msg);
                    }
                }
            });
            let transport = AuthTransport::new(vec![(NodeId::bb(0), addr)], auth, [3u8; 32]);
            let ep = transport.register(NodeId::client(1)).expect("client");
            ep.send(
                NodeId::bb(0),
                Msg::BbReadResponse {
                    request_id: 1,
                    snapshot: Arc::new(big.clone()),
                },
            );
            let reply = ep.recv_timeout(PATIENCE);
            stop.store(true, Ordering::SeqCst);
            (reply, ep.ev_stats())
        });
        let Ok(Envelope {
            from,
            msg: Msg::BbReadResponse { snapshot, .. },
            ..
        }) = reply
        else {
            panic!("no echo: {reply:?}");
        };
        assert_eq!(from, NodeId::bb(0));
        assert!(*snapshot == big, "the echo differs");
        let server = server.ev_stats();
        assert_eq!((client.dials, client.shed_slow), (1, 0));
        assert_eq!((server.accepted, server.shed_slow), (1, 0));
    }

    /// Endpoints of one transport draw their handshake nonces from seeds
    /// of their own: three endpoints dialing one server send three
    /// different client nonces.
    #[test]
    fn endpoints_of_one_transport_send_distinct_nonces() {
        const ENDPOINTS: usize = 3;
        let auth = AuthConfig::new(seeded_secret(42));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server_auth = auth.clone();
        let server = std::thread::spawn(move || {
            let mut nonces = Vec::new();
            let mut socks = Vec::new();
            for _ in 0..ENDPOINTS {
                let (mut sock, _) = listener.accept().expect("accept");
                let mut chan = ServerChannel::new(server_auth.clone(), [5u8; 16]);
                flush(&mut sock, &mut chan);
                // CLIENT_HELLO: len(4) kind(1) ver(1) id_kind(1)
                // id_index(4) client_nonce(16) mac(32).
                let mut hello = [0u8; 4 + 1 + 1 + 1 + 4 + 16 + 32];
                sock.read_exact(&mut hello).expect("client hello");
                nonces.push(hello[11..27].to_vec());
                chan.on_bytes(&hello, &mut Vec::new());
                assert!(chan.peer().is_some(), "the hello authenticates");
                flush(&mut sock, &mut chan);
                socks.push(sock);
            }
            nonces
        });
        let transport = AuthTransport::new(vec![(NodeId::vc(0), addr)], auth, [3u8; 32]);
        let endpoints: Vec<EvNodeEndpoint> = (0..ENDPOINTS)
            .map(|_| {
                let ep = transport.register(NodeId::client(1)).expect("client");
                ep.send(NodeId::vc(0), vote(0));
                ep
            })
            .collect();
        let nonces = server.join().expect("server thread");
        for (i, nonce) in nonces.iter().enumerate() {
            assert!(!nonces[..i].contains(nonce), "nonce {i} repeats");
        }
        assert_eq!(transport.conn_counters().authenticated, ENDPOINTS as u64);
        drop(endpoints);
    }
}
