//! The blocking client side of the authenticated channel protocol.
//!
//! The [`crate::evloop::EvLoop`] front door serves thousands of
//! connections per replica; its *clients* — the election coordinator,
//! voters, BB read/write clients — are plain request/response callers
//! over a blocking [`TransportEndpoint`]. An [`AuthTransport`] hands out
//! [`AuthEndpoint`]s that dial replicas on demand and run the seeded
//! [`crate::auth`] handshake inline.
//!
//! An endpoint is driven by its one caller, on the caller's thread:
//! receives wait in [`sys::poll`] over the endpoint's own sockets and
//! feed what arrives to each connection's [`ClientChannel`], the parser
//! the handshake ran through. No thread is spawned and no socket is
//! shared, so a connection lives exactly as long as its endpoint, unless
//! the peer rejects or closes it first: a voter's connection ends with
//! its cast, and the replica frees the slot at once.
//!
//! Inbound envelopes are stamped with the *channel* identity of the
//! dialed replica, never the `Envelope::from` a frame claims. A retired
//! connection is re-dialed by the next send with a fresh handshake, so
//! frames from an earlier session cannot be replayed onto the new one
//! (the session keys differ).

use crate::auth::{AuthConfig, ChanEvent, ClientChannel};
use crate::stats::NetStats;
use crate::sys::{self, PollFd};
use crate::transport::TransportEndpoint;
use crossbeam_channel::{RecvError, RecvTimeoutError};
use ddemos_crypto::hmac::Prf;
use ddemos_protocol::clock::ActorGuard;
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::NodeId;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a dial (connect + handshake) keeps retrying before the
/// send is dropped (best-effort semantics, like a lossy network).
const DIAL_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between connect retries while a replica is still binding.
const DIAL_RETRY: Duration = Duration::from_millis(50);
/// The longest one wait on the sockets lasts, so a blocked receive sees
/// the transport shut down within it.
const READ_POLL: Duration = Duration::from_millis(100);
/// Bytes taken off a socket per read.
const READ_CHUNK: usize = 16 << 10;

/// A point-in-time copy of an [`AuthTransport`]'s connection counters,
/// summed over all of its endpoints (surfaced through the election
/// report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Outbound dials attempted (connect reached, handshake started).
    pub dials: u64,
    /// Handshakes completed.
    pub authenticated: u64,
    /// Handshakes that failed (bad MAC, protocol fault, timeout).
    pub auth_failed: u64,
    /// Typed rejects received from peers.
    pub rejected: u64,
    /// Connect retries spent waiting for a replica to bind (per-peer
    /// backoff iterations before the connect succeeded or timed out).
    pub retries: u64,
    /// Dialed connections the endpoints closed or retired: a failed
    /// handshake, a peer's reject or close, a faulted frame, a failed
    /// write, or the endpoint dropped. `dials − closed` is what is open.
    pub closed: u64,
}

/// What a transport shares with every endpoint it hands out.
struct Shared {
    peers: HashMap<NodeId, SocketAddr>,
    auth: AuthConfig,
    nonce: Mutex<(Prf, u64)>,
    stats: NetStats,
    counters: Mutex<ConnSnapshot>,
    down: AtomicBool,
}

impl Shared {
    fn next_nonce(&self) -> [u8; 16] {
        let mut guard = self.nonce.lock();
        guard.1 += 1;
        guard.0.bytes32(b"n", guard.1)[..16]
            .try_into()
            .expect("16 bytes")
    }
}

/// A client-side network whose endpoints dial authenticated channels to
/// a static peer table of evloop-fronted replicas.
pub struct AuthTransport {
    shared: Arc<Shared>,
}

impl AuthTransport {
    /// Creates the transport over a peer table. `nonce_seed` feeds the
    /// handshake nonce PRF (any unique-per-process value works; nonce
    /// reuse only weakens replay protection across *this process's own*
    /// reconnects).
    pub fn new(
        peers: Vec<(NodeId, SocketAddr)>,
        auth: AuthConfig,
        nonce_seed: [u8; 32],
    ) -> AuthTransport {
        AuthTransport {
            shared: Arc::new(Shared {
                peers: peers.into_iter().collect(),
                auth,
                nonce: Mutex::new((Prf::new(nonce_seed).derive(b"dialer.nonce"), 0)),
                stats: NetStats::default(),
                counters: Mutex::new(ConnSnapshot::default()),
                down: AtomicBool::new(false),
            }),
        }
    }

    /// Message counters (sent/delivered/dropped), like any transport's.
    pub fn stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Connection counters across every endpoint of this transport.
    pub fn conn_counters(&self) -> ConnSnapshot {
        *self.shared.counters.lock()
    }

    /// Registers a client identity, returning its endpoint.
    pub fn register(&self, id: NodeId) -> AuthEndpoint {
        AuthEndpoint {
            id,
            start: Instant::now(),
            shared: self.shared.clone(),
            conns: RefCell::new(Conns::default()),
        }
    }

    /// Ends the transport: every endpoint's receive reports
    /// `Disconnected` once its inbox is drained, and dials stop
    /// retrying. Sockets close with the endpoints that own them.
    pub fn shutdown(&self) {
        self.shared.down.store(true, Ordering::SeqCst);
    }
}

/// One outbound connection. The channel runs the handshake, frames what
/// `send` writes and parses what the socket delivers.
struct PeerConn {
    peer: NodeId,
    stream: TcpStream,
    chan: ClientChannel,
}

impl PeerConn {
    /// Writes everything the channel has queued.
    fn flush(&mut self) -> io::Result<()> {
        let out = self.chan.outgoing();
        let n = out.len();
        self.stream.write_all(out)?;
        self.chan.advance_out(n);
        Ok(())
    }
}

/// What an endpoint's caller drives: its connections, and the envelopes
/// read but not yet handed out.
#[derive(Default)]
struct Conns {
    live: Vec<PeerConn>,
    inbox: VecDeque<Envelope>,
}

/// A blocking endpoint over per-peer authenticated channels, driven by
/// its one caller: it is `Send` but not `Sync`.
pub struct AuthEndpoint {
    id: NodeId,
    start: Instant,
    shared: Arc<Shared>,
    conns: RefCell<Conns>,
}

impl AuthEndpoint {
    /// Connects to `to`, retrying while the replica is still coming up,
    /// and runs the handshake. Returns the new connection's index in
    /// `conns.live`, or `None` when the dial failed.
    fn dial(&self, to: NodeId, conns: &mut Conns) -> Option<usize> {
        let shared = &*self.shared;
        let addr = *shared.peers.get(&to)?;
        let deadline = Instant::now() + DIAL_DEADLINE;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() >= deadline || shared.down.load(Ordering::SeqCst) => {
                    return None;
                }
                Err(_) => {
                    shared.counters.lock().retries += 1;
                    std::thread::sleep(DIAL_RETRY);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        shared.counters.lock().dials += 1;
        let chan = ClientChannel::new(shared.auth.clone(), self.id, to, shared.next_nonce());
        conns.live.push(PeerConn {
            peer: to,
            stream,
            chan,
        });
        // The handshake's replies come in through `pump` like any other
        // traffic: a frame the server wrote right behind its accept is the
        // connection's first delivery, and an EOF, a reject or a fault
        // retires the connection.
        loop {
            let Some(i) = conns.live.iter().position(|c| c.peer == to) else {
                shared.counters.lock().auth_failed += 1;
                return None;
            };
            let conn = &mut conns.live[i];
            let left = deadline.saturating_duration_since(Instant::now());
            if conn.flush().is_err() || left.is_zero() {
                conns.live.swap_remove(i);
                let mut counters = shared.counters.lock();
                counters.auth_failed += 1;
                counters.closed += 1;
                return None;
            }
            if conn.chan.is_established() {
                shared.counters.lock().authenticated += 1;
                return Some(i);
            }
            self.pump(conns, left.min(READ_POLL));
        }
    }

    /// Feeds bytes read off `conn` to its channel and files what it
    /// surfaces: frames go to the inbox. Returns whether the connection
    /// has ended: the peer rejected it, or a frame failed its checks.
    fn on_bytes(&self, conn: &mut PeerConn, bytes: &[u8], inbox: &mut VecDeque<Envelope>) -> bool {
        let mut events = Vec::new();
        conn.chan.on_bytes(bytes, &mut events);
        let mut ended = false;
        for ev in events {
            match ev {
                ChanEvent::Frame(env) => {
                    self.shared.stats.record_delivered(0);
                    inbox.push_back(env);
                }
                ChanEvent::PeerReject(_) => {
                    self.shared.counters.lock().rejected += 1;
                    ended = true;
                }
                ChanEvent::Fault(_) => ended = true,
                ChanEvent::Up { .. } => {}
            }
        }
        ended
    }

    /// Waits up to `timeout` for input on the endpoint's connections and
    /// reads what is ready. A connection that ended — EOF, a socket
    /// error, the peer's reject, a frame failing its checks — is
    /// retired, so the next send to that peer re-dials.
    fn pump(&self, conns: &mut Conns, timeout: Duration) {
        let mut fds: Vec<PollFd> = conns
            .live
            .iter()
            .map(|c| PollFd::readable(c.stream.as_raw_fd()))
            .collect();
        if !matches!(sys::poll(&mut fds, timeout), Ok(n) if n > 0) {
            return;
        }
        let mut buf = [0u8; READ_CHUNK];
        // Backwards, so `swap_remove` only moves connections already read.
        for (i, fd) in fds.iter().enumerate().rev() {
            if !fd.ready() {
                continue;
            }
            let conn = &mut conns.live[i];
            let ended = match conn.stream.read(&mut buf) {
                Ok(0) => true,
                Ok(n) => self.on_bytes(conn, &buf[..n], &mut conns.inbox),
                Err(e) => e.kind() != io::ErrorKind::Interrupted,
            };
            if ended {
                conns.live.swap_remove(i);
                self.shared.counters.lock().closed += 1;
            }
        }
    }

    /// Hands out the next envelope, waiting on the sockets in
    /// [`READ_POLL`] slices until one arrives, `deadline` passes (`None`:
    /// never) or the transport shuts down. The sockets are read at least
    /// once, so a deadline already past still picks up what has arrived.
    fn next(&self, deadline: Option<Instant>) -> Result<Envelope, RecvTimeoutError> {
        let mut conns = self.conns.borrow_mut();
        loop {
            if let Some(env) = conns.inbox.pop_front() {
                return Ok(env);
            }
            if self.shared.down.load(Ordering::SeqCst) {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.map_or(READ_POLL, |d| d.saturating_duration_since(Instant::now()));
            self.pump(&mut conns, left.min(READ_POLL));
            if left.is_zero() {
                return conns.inbox.pop_front().ok_or(RecvTimeoutError::Timeout);
            }
        }
    }
}

impl Drop for AuthEndpoint {
    fn drop(&mut self) {
        self.shared.counters.lock().closed += self.conns.get_mut().live.len() as u64;
    }
}

impl TransportEndpoint for AuthEndpoint {
    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, msg: Msg) {
        let env = Envelope {
            from: self.id,
            to,
            msg,
        };
        let stats = &self.shared.stats;
        stats.record_sent(&env.msg);
        let mut conns = self.conns.borrow_mut();
        // Take in what already arrived first, so a connection the peer
        // has closed is re-dialed rather than written into.
        self.pump(&mut conns, Duration::ZERO);
        let known = conns.live.iter().position(|c| c.peer == to);
        let Some(i) = known.or_else(|| self.dial(to, &mut conns)) else {
            // Best-effort, like a lossy network.
            stats.record_dropped();
            return;
        };
        let conn = &mut conns.live[i];
        if conn.chan.send_envelope(&env).is_err() || conn.flush().is_err() {
            conns.live.swap_remove(i);
            self.shared.counters.lock().closed += 1;
            stats.record_dropped();
        }
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.next(None).map_err(|_| RecvError)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        self.next(Instant::now().checked_add(timeout))
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.next(Some(Instant::now())).ok()
    }

    fn read_pending(&self) -> usize {
        self.conns.borrow().inbox.len()
    }

    /// Closes every connection in order: half-closes each, so the FIN
    /// follows the last frame sent, then reads until every peer has
    /// closed its side too or `patience` runs out, and discards what
    /// arrived. Closing a socket over unread bytes sends a reset instead,
    /// and a reset can destroy frames the peer has not read yet.
    fn close(&self, patience: Duration) {
        let deadline = Instant::now() + patience;
        let mut conns = self.conns.borrow_mut();
        for conn in &conns.live {
            let _ = conn.stream.shutdown(Shutdown::Write);
        }
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            if conns.live.is_empty() {
                break;
            }
            self.pump(&mut conns, left);
        }
        self.shared.counters.lock().closed += conns.live.len() as u64;
        *conns = Conns::default();
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        None
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::auth::{seeded_secret, RejectCode, ServerChannel};
    use crate::evloop::{EvConfig, EvEvent, EvLoop};
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_protocol::{NodeKind, SerialNo};
    use std::net::TcpListener;
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
                .listen("127.0.0.1:0".parse().expect("addr"))
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

    /// A dialer endpoint completes the handshake against an EvLoop
    /// server, the server sees the channel-derived identity, and an
    /// echoed envelope comes back stamped with the *server's* identity
    /// regardless of what the wire frame claimed.
    #[test]
    fn dialer_round_trips_through_evloop_server() {
        let auth = AuthConfig::new(seeded_secret(42));
        let client_id = nid(NodeKind::Client, 7);
        let server = Server::start(&auth, nid(NodeKind::Vc, 0), echo);
        let transport = AuthTransport::new(vec![(server.id, server.addr)], auth, [3u8; 32]);
        let ep = transport.register(client_id);
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

    /// A dialer with the wrong cluster secret never authenticates and
    /// the send is dropped (best-effort), counted as a failed dial.
    #[test]
    fn dialer_with_wrong_secret_fails_auth() {
        let server_auth = AuthConfig::new(seeded_secret(42));
        let server = Server::start(&server_auth, nid(NodeKind::Vc, 0), |_, _| {});
        let wrong = AuthConfig::new(seeded_secret(43));
        let transport = AuthTransport::new(vec![(server.id, server.addr)], wrong, [3u8; 32]);
        let ep = transport.register(nid(NodeKind::Client, 1));
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
        let ep = transport.register(NodeId::client(7));
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
        let ep = transport.register(NodeId::client(0));
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
        let ep = transport.register(client_id);
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
            let ep = transport.register(NodeId::client(2));
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
        let ep = transport.register(NodeId::client(3));
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
}
