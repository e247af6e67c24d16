//! The blocking client side of the authenticated channel protocol.
//!
//! The [`crate::evloop::EvLoop`] front door serves thousands of
//! connections per replica; its *clients* — the election coordinator,
//! voters, BB read/write clients — are plain request/response callers
//! over a blocking [`TransportEndpoint`]. This module provides it: an
//! [`AuthTransport`] hands out [`AuthEndpoint`]s that dial replicas on
//! demand, run the seeded [`crate::auth`] handshake inline (blocking),
//! and then split the channel into a locked write half and a
//! per-connection reader thread feeding one shared inbox.
//!
//! Every connection here is authenticated: inbound envelopes are
//! stamped with the *channel* identity of the dialed replica (never the
//! `Envelope::from` a frame claims), and a replica that cannot complete
//! the handshake never gets an envelope through. Reconnects run a fresh
//! handshake with fresh nonces, so frames from a previous session epoch
//! cannot be replayed onto the new one (the session keys differ).

use crate::auth::{AuthConfig, ClientChannel, RejectCode, SessionRecv, SessionSend};
use crate::stats::NetStats;
use crate::transport::TransportEndpoint;
use crossbeam_channel::{Receiver, RecvError, RecvTimeoutError, Sender};
use ddemos_crypto::hmac::Prf;
use ddemos_protocol::clock::ActorGuard;
use ddemos_protocol::codec::{decode_envelope_frame, encode_envelope_frame};
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a dial (connect + handshake) keeps retrying before the
/// send is dropped (best-effort semantics, like a lossy network).
const DIAL_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between connect retries while a replica is still binding.
const DIAL_RETRY: Duration = Duration::from_millis(50);
/// Reader-thread poll interval (bounds shutdown latency).
const READ_POLL: Duration = Duration::from_millis(100);

/// Connection counters an [`AuthTransport`] accumulates across all of
/// its endpoints (surfaced through the election report).
#[derive(Debug, Default)]
pub struct ConnCounters {
    dials: AtomicU64,
    authenticated: AtomicU64,
    auth_failed: AtomicU64,
    rejected: AtomicU64,
    retries: AtomicU64,
}

/// A point-in-time copy of [`ConnCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Outbound dials attempted (connect reached, handshake started).
    pub dials: u64,
    /// Handshakes completed.
    pub authenticated: u64,
    /// Handshakes that failed (bad MAC, protocol fault, timeout).
    pub auth_failed: u64,
    /// Typed rejects received from peers on established channels.
    pub rejected: u64,
    /// Connect retries spent waiting for a replica to bind (per-peer
    /// backoff iterations before the connect succeeded or timed out).
    pub retries: u64,
}

impl ConnCounters {
    fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            dials: self.dials.load(Ordering::Relaxed),
            authenticated: self.authenticated.load(Ordering::Relaxed),
            auth_failed: self.auth_failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// A client-side network whose endpoints dial authenticated channels to
/// a static peer table of evloop-fronted replicas.
pub struct AuthTransport {
    peers: Arc<HashMap<NodeId, SocketAddr>>,
    auth: AuthConfig,
    nonce: Mutex<(Prf, u64)>,
    stats: Arc<NetStats>,
    counters: Arc<ConnCounters>,
    down: Arc<AtomicBool>,
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
            peers: Arc::new(peers.into_iter().collect()),
            auth,
            nonce: Mutex::new((Prf::new(nonce_seed).derive(b"dialer.nonce"), 0)),
            stats: Arc::new(NetStats::default()),
            counters: Arc::new(ConnCounters::default()),
            down: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Message counters (sent/delivered/dropped), like any transport's.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Connection counters across every endpoint of this transport.
    pub fn conn_counters(&self) -> ConnSnapshot {
        self.counters.snapshot()
    }

    fn next_nonce(&self) -> [u8; 16] {
        let mut guard = self.nonce.lock();
        guard.1 += 1;
        let counter = guard.1;
        guard.0.bytes32(b"n", counter)[..16]
            .try_into()
            .expect("16 bytes")
    }

    /// Registers a client identity, returning its endpoint.
    pub fn register(&self, id: NodeId) -> AuthEndpoint {
        let (inbox_tx, inbox_rx) = crossbeam_channel::unbounded();
        AuthEndpoint {
            id,
            peers: self.peers.clone(),
            auth: self.auth.clone(),
            conns: Arc::new(Mutex::new(HashMap::new())),
            inbox_tx,
            inbox_rx,
            // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
            start: Instant::now(),
            epoch: AtomicU64::new(0),
            nonce_prf: {
                let nonce = self.next_nonce();
                let mut seed = [0u8; 32];
                seed[..16].copy_from_slice(&nonce);
                Mutex::new((Prf::new(seed).derive(b"endpoint.nonce"), 0))
            },
            stats: self.stats.clone(),
            counters: self.counters.clone(),
            down: self.down.clone(),
        }
    }

    /// Stops every endpoint's reader threads and dials.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::SeqCst);
    }
}

/// One live outbound connection: the write half (the read half lives in
/// the reader thread).
struct PeerConn {
    stream: TcpStream,
    send: SessionSend,
    epoch: u64,
}

/// A blocking endpoint over per-peer authenticated channels.
pub struct AuthEndpoint {
    id: NodeId,
    peers: Arc<HashMap<NodeId, SocketAddr>>,
    auth: AuthConfig,
    conns: Arc<Mutex<HashMap<NodeId, PeerConn>>>,
    inbox_tx: Sender<Envelope>,
    inbox_rx: Receiver<Envelope>,
    start: Instant,
    epoch: AtomicU64,
    nonce_prf: Mutex<(Prf, u64)>,
    stats: Arc<NetStats>,
    counters: Arc<ConnCounters>,
    down: Arc<AtomicBool>,
}

impl AuthEndpoint {
    fn next_nonce(&self) -> [u8; 16] {
        let mut guard = self.nonce_prf.lock();
        guard.1 += 1;
        let counter = guard.1;
        guard.0.bytes32(b"n", counter)[..16]
            .try_into()
            .expect("16 bytes")
    }

    /// Connect + blocking handshake, with retries while the replica is
    /// still coming up.
    fn dial(&self, to: NodeId) -> io::Result<(PeerConn, SessionRecv, Vec<u8>)> {
        let addr = *self.peers.get(&to).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no address for {to}"))
        })?;
        // lint:allow(wall-clock, dial deadline over a real TCP socket)
        let deadline = Instant::now() + DIAL_DEADLINE;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                // lint:allow(wall-clock, dial deadline over a real TCP socket)
                Err(e) if Instant::now() >= deadline || self.down.load(Ordering::SeqCst) => {
                    return Err(e);
                }
                Err(_) => {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(DIAL_RETRY);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        stream.set_read_timeout(Some(READ_POLL))?;
        let mut chan = ClientChannel::new(self.auth.clone(), self.id, to, self.next_nonce());
        let mut buf = [0u8; 4096];
        let mut events = Vec::new();
        let mut stream = stream;
        loop {
            while !chan.outgoing().is_empty() {
                let n = stream.write(chan.outgoing())?;
                chan.advance_out(n);
            }
            if chan.is_established() {
                break;
            }
            // lint:allow(wall-clock, handshake deadline over a real TCP socket)
            if chan.is_closed() || Instant::now() >= deadline {
                self.counters.auth_failed.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("handshake with {to} failed"),
                ));
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    self.counters.auth_failed.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("{to} closed during handshake"),
                    ));
                }
                Ok(n) => chan.on_bytes(&buf[..n], &mut events),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.counters.authenticated.fetch_add(1, Ordering::Relaxed);
        let (send, recv, leftover) = chan.into_parts();
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        Ok((
            PeerConn {
                stream,
                send,
                epoch,
            },
            recv,
            leftover,
        ))
    }

    /// Spawns the reader thread owning a connection's receive half.
    fn spawn_reader(
        &self,
        to: NodeId,
        epoch: u64,
        stream: TcpStream,
        mut recv: SessionRecv,
        leftover: Vec<u8>,
    ) {
        let conns = self.conns.clone();
        let inbox = self.inbox_tx.clone();
        let stats = self.stats.clone();
        let counters = self.counters.clone();
        let down = self.down.clone();
        let max_frame = self.auth.max_frame as usize;
        let _ = std::thread::Builder::new()
            .name(format!("auth-read-{to}"))
            .spawn(move || {
                let mut stream = stream;
                let _ = stream.set_read_timeout(Some(READ_POLL));
                let mut pending = leftover;
                let mut buf = [0u8; 16 << 10];
                'read: loop {
                    // Parse every complete message already buffered.
                    loop {
                        match next_msg(&mut pending, 1 + 24 + max_frame) {
                            Ok(None) => break,
                            Ok(Some((kind, body))) => match kind {
                                KIND_DATA => match recv
                                    .open(&body)
                                    .map_err(|_| ())
                                    .and_then(|p| decode_envelope_frame(p).map_err(|_| ()))
                                {
                                    Ok(mut env) => {
                                        // The channel identity, not the
                                        // frame, names the sender.
                                        env.from = to;
                                        stats.record_delivered(0);
                                        if inbox.send(env).is_err() {
                                            break 'read;
                                        }
                                    }
                                    Err(()) => break 'read,
                                },
                                KIND_REJECT => {
                                    if body
                                        .first()
                                        .and_then(|b| RejectCode::from_byte(*b))
                                        .is_some()
                                    {
                                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                                    }
                                    break 'read;
                                }
                                _ => break 'read,
                            },
                            Err(()) => break 'read,
                        }
                    }
                    if down.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => pending.extend_from_slice(&buf[..n]),
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                // Retire this connection so the next send re-dials with
                // a fresh handshake (new session keys — a stale-epoch
                // frame cannot verify on the new channel).
                let mut conns = conns.lock();
                if conns.get(&to).is_some_and(|c| c.epoch == epoch) {
                    conns.remove(&to);
                }
            });
    }
}

/// Wire message kinds mirrored from the channel protocol (the reader
/// thread parses post-handshake traffic itself).
const KIND_DATA: u8 = 4;
const KIND_REJECT: u8 = 5;

/// Pops the next complete `len || kind || body` message off `pending`.
/// `Err` on a malformed or oversized length prefix.
fn next_msg(pending: &mut Vec<u8>, max_len: usize) -> Result<Option<(u8, Vec<u8>)>, ()> {
    if pending.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
    if len < 1 || len > max_len {
        return Err(());
    }
    if pending.len() < 4 + len {
        return Ok(None);
    }
    let body = pending[5..4 + len].to_vec();
    let kind = pending[4];
    pending.drain(..4 + len);
    Ok(Some((kind, body)))
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
        self.stats.record_sent(&env.msg);
        let mut conns = self.conns.lock();
        if let std::collections::hash_map::Entry::Vacant(slot) = conns.entry(to) {
            match self.dial(to) {
                Ok((conn, recv, leftover)) => {
                    let reader = match conn.stream.try_clone() {
                        Ok(r) => r,
                        Err(_) => {
                            self.stats.record_dropped();
                            return;
                        }
                    };
                    let epoch = conn.epoch;
                    slot.insert(conn);
                    self.spawn_reader(to, epoch, reader, recv, leftover);
                }
                Err(_) => {
                    // Best-effort, like a lossy network.
                    self.stats.record_dropped();
                    return;
                }
            }
        }
        let Some(conn) = conns.get_mut(&to) else {
            self.stats.record_dropped();
            return;
        };
        let payload = encode_envelope_frame(&env);
        let mut frame = Vec::with_capacity(payload.len() + 32);
        conn.send.frame(&payload, &mut frame);
        if conn.stream.write_all(&frame).is_err() {
            conns.remove(&to);
            self.stats.record_dropped();
        }
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.inbox_rx.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        self.inbox_rx.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.inbox_rx.try_recv().ok()
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
    use crate::auth::seeded_secret;
    use crate::evloop::{EvConfig, EvEvent, EvLoop};
    use ddemos_protocol::NodeKind;

    fn nid(kind: NodeKind, index: u32) -> NodeId {
        NodeId { kind, index }
    }

    /// A dialer endpoint completes the handshake against an EvLoop
    /// server, the server sees the channel-derived identity, and an
    /// echoed envelope comes back stamped with the *server's* identity
    /// regardless of what the wire frame claimed.
    #[test]
    fn dialer_round_trips_through_evloop_server() {
        let auth = AuthConfig::new(seeded_secret(42));
        let server_id = nid(NodeKind::Vc, 0);
        let client_id = nid(NodeKind::Client, 7);

        let mut lp = EvLoop::new(EvConfig::new(auth.clone(), [9u8; 32])).expect("evloop");
        let addr = lp
            .listen("127.0.0.1:0".parse().expect("addr"))
            .expect("listen");

        let server = std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut seen_peer = None;
            // lint:allow(wall-clock, test harness deadline over real sockets)
            let deadline = Instant::now() + Duration::from_secs(10);
            // lint:allow(wall-clock, test harness deadline over real sockets)
            while Instant::now() < deadline {
                lp.poll(Some(Duration::from_millis(20)), &mut events)
                    .expect("poll");
                for ev in events.drain(..) {
                    match ev {
                        EvEvent::Up { peer, .. } => seen_peer = Some(peer),
                        EvEvent::Frame { conn, env } => {
                            let reply = Envelope {
                                from: nid(NodeKind::Trustee, 99), // claimed, must be overridden
                                to: env.from,
                                msg: env.msg,
                            };
                            lp.send(conn, &reply).expect("send");
                            return seen_peer;
                        }
                        EvEvent::Down { .. } => {}
                    }
                }
            }
            None
        });

        let transport = AuthTransport::new(vec![(server_id, addr)], auth, [3u8; 32]);
        let ep = transport.register(client_id);
        ep.send(server_id, Msg::ClosePolls);
        let echoed = ep
            .recv_timeout(Duration::from_secs(10))
            .expect("echo reply");
        // The claimed Trustee identity is discarded: the channel knows
        // who it authenticated.
        assert_eq!(echoed.from, server_id);
        assert!(matches!(echoed.msg, Msg::ClosePolls));

        let peer = server.join().expect("server thread");
        assert_eq!(peer, Some(client_id));
        let snap = transport.conn_counters();
        assert_eq!(snap.dials, 1);
        assert_eq!(snap.authenticated, 1);
        assert_eq!(snap.auth_failed, 0);
        transport.shutdown();
    }

    /// A dialer with the wrong cluster secret never authenticates and
    /// the send is dropped (best-effort), counted as a failed dial.
    #[test]
    fn dialer_with_wrong_secret_fails_auth() {
        let server_auth = AuthConfig::new(seeded_secret(42));
        let server_id = nid(NodeKind::Vc, 0);

        let mut lp = EvLoop::new(EvConfig::new(server_auth, [9u8; 32])).expect("evloop");
        let addr = lp
            .listen("127.0.0.1:0".parse().expect("addr"))
            .expect("listen");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let server = std::thread::spawn(move || {
            let mut events = Vec::new();
            while !stop2.load(Ordering::SeqCst) {
                lp.poll(Some(Duration::from_millis(20)), &mut events)
                    .expect("poll");
                events.clear();
            }
        });

        let wrong = AuthConfig::new(seeded_secret(43));
        let transport = AuthTransport::new(vec![(server_id, addr)], wrong, [3u8; 32]);
        let ep = transport.register(nid(NodeKind::Client, 1));
        ep.send(server_id, Msg::ClosePolls);
        let snap = transport.conn_counters();
        assert_eq!(snap.authenticated, 0);
        assert_eq!(snap.auth_failed, 1);
        assert_eq!(transport.stats().dropped(), 1);
        stop.store(true, Ordering::SeqCst);
        server.join().expect("server thread");
    }
}
