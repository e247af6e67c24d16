//! The readiness-driven event loop: the async front door.
//!
//! One `EvLoop` multiplexes every connection of a node — inbound voter
//! and peer connections off nonblocking listeners, outbound dials to
//! peers — through a single epoll instance ([`crate::sys::Poller`]),
//! with flat per-connection memory: one [`crate::auth`] channel state
//! machine (read buffer, write queue, session keys) per socket and no
//! thread per peer. Drivers call [`EvLoop::poll`] and feed the returned
//! [`EvEvent`]s straight into the sans-I/O cores
//! (`VcCore::step`/`BbCore::step`); replies go back out through
//! [`EvLoop::send`].
//!
//! Admission and backpressure policy (DESIGN.md §10):
//!
//! * **max connections** — accepts past [`EvConfig::max_conns`] get a
//!   typed `ServerFull` reject and an immediate close;
//! * **frame caps** — any message longer than the configured maximum
//!   closes the channel with `FrameTooLarge`;
//! * **slow consumers** — a connection whose write queue already holds
//!   more than [`EvConfig::write_cap`] bytes when another frame is queued
//!   is shed with `SlowConsumer` rather than allowed to balloon the
//!   server's memory (one frame of any admitted size always fits, so a
//!   large BB snapshot crosses a fresh connection);
//! * **authentication** — every connection must complete the seeded
//!   handshake before any envelope is accepted, and `Envelope::from`
//!   is thereafter derived from the channel identity.
//!
//! This module is covered by the `no-blocking-recv` lint rule: nothing
//! here may block on a channel receive — all waiting happens in
//! `epoll_wait` with an explicit timeout.

use crate::auth::{
    AuthConfig, ChanEvent, ChanFault, ClientChannel, RejectCode, SendError, ServerChannel,
};
use crate::sys::{PollEvent, Poller};
use ddemos_crypto::hmac::Prf;
use ddemos_obs::Recorder;
use ddemos_protocol::messages::Envelope;
use ddemos_protocol::NodeId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Event-loop configuration: admission, backpressure and auth.
#[derive(Clone)]
pub struct EvConfig {
    /// Channel authentication (cluster secret + frame cap).
    pub auth: AuthConfig,
    /// Admission limit: connections beyond this are rejected with
    /// [`RejectCode::ServerFull`].
    pub max_conns: usize,
    /// Per-connection write-queue cap in bytes: queueing a frame behind
    /// more than this sheds the connection with
    /// [`RejectCode::SlowConsumer`].
    pub write_cap: usize,
    /// Seed for the per-connection handshake nonces.
    pub nonce_seed: [u8; 32],
}

impl EvConfig {
    /// Defaults: 16384 connections, 1 MiB write queues.
    pub fn new(auth: AuthConfig, nonce_seed: [u8; 32]) -> EvConfig {
        EvConfig {
            auth,
            max_conns: 16384,
            write_cap: 1 << 20,
            nonce_seed,
        }
    }
}

/// A connection handle: slot index plus a generation so a recycled slot
/// never aliases a stale handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    idx: u32,
    gen: u32,
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn-{}.{}", self.idx, self.gen)
    }
}

/// Why a connection went down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DownReason {
    /// Clean EOF from the peer (includes half-open closes: the moment
    /// the read side sees FIN the connection is dropped — the loop
    /// never services half-open peers).
    Eof,
    /// A socket error.
    Io,
    /// A local protocol fault (the peer was sent the matching typed
    /// reject).
    Fault(ChanFault),
    /// The peer sent a typed reject.
    PeerReject(RejectCode),
    /// This side shed the connection (write queue over
    /// [`EvConfig::write_cap`]).
    Shed,
}

/// What [`EvLoop::poll`] surfaced.
///
/// `Frame` dominates the size, but events are consumed within the same
/// poll iteration, so boxing the envelope would only add a per-frame
/// allocation on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum EvEvent {
    /// A connection completed its handshake.
    Up {
        /// The connection.
        conn: ConnId,
        /// The authenticated peer identity.
        peer: NodeId,
        /// The session (epoch) id.
        session: u64,
    },
    /// An authenticated envelope (`from` is channel-derived).
    Frame {
        /// The connection it arrived on.
        conn: ConnId,
        /// The envelope.
        env: Envelope,
    },
    /// A connection closed.
    Down {
        /// The connection.
        conn: ConnId,
        /// Its authenticated peer, if the handshake had completed.
        peer: Option<NodeId>,
        /// Why.
        reason: DownReason,
    },
}

/// Errors from [`EvLoop::send`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvSendError {
    /// No such connection (closed or stale handle).
    Gone,
    /// The connection was shed because this send found its write queue
    /// over the cap; a `Down { reason: Shed }` event follows.
    Shed,
}

/// Counters the loop maintains (returned by value from
/// [`EvLoop::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EvStats {
    /// Inbound connections accepted (pre-handshake).
    pub accepted: u64,
    /// Inbound connections rejected at admission (`ServerFull`).
    pub rejected_full: u64,
    /// Handshakes completed (both directions).
    pub authenticated: u64,
    /// Handshakes failed: connections that ended before their handshake
    /// completed (a bad MAC, a peer's reject or close, a fault).
    pub auth_failed: u64,
    /// Outbound connects that reached the peer.
    pub dials: u64,
    /// Outbound connects refused or failed (a peer still binding; the
    /// endpoint retries them).
    pub retries: u64,
    /// Typed rejects received from peers.
    pub rejected: u64,
    /// Envelopes delivered up.
    pub frames_in: u64,
    /// Envelopes queued out.
    pub frames_out: u64,
    /// Bytes read.
    pub bytes_in: u64,
    /// Bytes written.
    pub bytes_out: u64,
    /// Connections closed for oversized frames.
    pub oversized: u64,
    /// Connections shed as slow consumers.
    pub shed_slow: u64,
    /// Replayed / stale-epoch / tampered data frames.
    pub replays: u64,
    /// Other malformed traffic.
    pub malformed: u64,
    /// Frames whose claimed `from` was overridden by the channel
    /// identity.
    pub from_overridden: u64,
    /// Connections closed (any reason).
    pub closed: u64,
}

impl EvStats {
    /// Every counter with its name, in a fixed order.
    pub fn counters(&self) -> [(&'static str, u64); 17] {
        let mut copy = *self;
        copy.counters_mut().map(|(name, v)| (name, *v))
    }

    /// Mutable view matching [`EvStats::counters`].
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 17] {
        [
            ("accepted", &mut self.accepted),
            ("rejected_full", &mut self.rejected_full),
            ("authenticated", &mut self.authenticated),
            ("auth_failed", &mut self.auth_failed),
            ("dials", &mut self.dials),
            ("retries", &mut self.retries),
            ("rejected", &mut self.rejected),
            ("frames_in", &mut self.frames_in),
            ("frames_out", &mut self.frames_out),
            ("bytes_in", &mut self.bytes_in),
            ("bytes_out", &mut self.bytes_out),
            ("oversized", &mut self.oversized),
            ("shed_slow", &mut self.shed_slow),
            ("replays", &mut self.replays),
            ("malformed", &mut self.malformed),
            ("from_overridden", &mut self.from_overridden),
            ("closed", &mut self.closed),
        ]
    }
}

enum Chan {
    Server(ServerChannel),
    Client(ClientChannel),
}

impl Chan {
    fn on_bytes(&mut self, data: &[u8], events: &mut Vec<ChanEvent>) {
        match self {
            Chan::Server(c) => c.on_bytes(data, events),
            Chan::Client(c) => c.on_bytes(data, events),
        }
    }

    fn send_envelope(&mut self, env: &Envelope) -> Result<(), SendError> {
        match self {
            Chan::Server(c) => c.send_envelope(env),
            Chan::Client(c) => c.send_envelope(env),
        }
    }

    fn reject(&mut self, code: RejectCode) {
        match self {
            Chan::Server(c) => c.reject(code),
            Chan::Client(c) => c.reject(code),
        }
    }

    fn outgoing(&self) -> &[u8] {
        match self {
            Chan::Server(c) => c.outgoing(),
            Chan::Client(c) => c.outgoing(),
        }
    }

    fn advance_out(&mut self, n: usize) {
        match self {
            Chan::Server(c) => c.advance_out(n),
            Chan::Client(c) => c.advance_out(n),
        }
    }

    fn out_pending(&self) -> usize {
        match self {
            Chan::Server(c) => c.out_pending(),
            Chan::Client(c) => c.out_pending(),
        }
    }

    fn overridden_from(&self) -> u64 {
        match self {
            Chan::Server(c) => c.from_overridden(),
            Chan::Client(c) => c.from_overridden(),
        }
    }
}

struct Conn {
    stream: TcpStream,
    chan: Chan,
    peer: Option<NodeId>,
    want_write: bool,
    closing: bool,
    /// The write side is shut (see [`EvLoop::half_close`]).
    write_shut: bool,
}

const LISTENER_BIT: u64 = 1 << 63;

fn conn_token(idx: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// Looks up a live connection slot, checking the generation so stale
/// handles observe `None`. A free function over the split fields keeps
/// sibling fields (`stats`, `scratch`, `poller`) borrowable alongside.
fn slot<'a>(conns: &'a mut [Option<Conn>], gens: &[u32], id: ConnId) -> Option<&'a mut Conn> {
    if gens.get(id.idx as usize) != Some(&id.gen) {
        return None;
    }
    conns.get_mut(id.idx as usize)?.as_mut()
}

/// The readiness loop. Single-threaded: one instance per shard.
pub struct EvLoop {
    cfg: EvConfig,
    poller: Poller,
    /// Each listener, with the identity it serves as.
    listeners: Vec<(TcpListener, NodeId)>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    nonce_prf: Prf,
    nonce_counter: u64,
    stats: EvStats,
    scratch: Box<[u8]>,
    poll_buf: Vec<PollEvent>,
    chan_events: Vec<ChanEvent>,
    deferred: Vec<EvEvent>,
    recorder: Recorder,
    /// Set by [`EvLoop::half_close`].
    half_closing: bool,
}

/// What [`EvLoop::flush_conn`] observed.
enum Flushed {
    /// Queue drained (or socket would block); connection still alive.
    Alive,
    /// The connection died mid-write and was torn down.
    Dead,
}

impl EvLoop {
    /// Creates the loop (epoll instance included).
    ///
    /// # Errors
    /// Poller creation (always fails off Linux).
    pub fn new(cfg: EvConfig) -> io::Result<EvLoop> {
        let nonce_prf = Prf::new(cfg.nonce_seed).derive(b"evloop.nonce");
        Ok(EvLoop {
            cfg,
            poller: Poller::new()?,
            listeners: Vec::new(),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            nonce_prf,
            nonce_counter: 0,
            stats: EvStats::default(),
            scratch: vec![0u8; 64 << 10].into_boxed_slice(),
            poll_buf: Vec::new(),
            chan_events: Vec::new(),
            deferred: Vec::new(),
            recorder: Recorder::disabled(),
            half_closing: false,
        })
    }

    /// Attaches a metrics recorder; the loop times frame encode/decode
    /// against it. Disabled by default (zero-cost branches).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Binds a nonblocking listener for the node `own` (whose id no client
    /// may claim: [`ServerChannel::serving_as`]); returns the bound address.
    ///
    /// # Errors
    /// Bind/registration failures.
    pub fn listen(&mut self, addr: SocketAddr, own: NodeId) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let token = LISTENER_BIT | self.listeners.len() as u64;
        self.poller.add(listener.as_raw_fd(), token, true, false)?;
        self.listeners.push((listener, own));
        Ok(local)
    }

    fn next_nonce(&mut self) -> [u8; 16] {
        self.nonce_counter += 1;
        let bytes = self.nonce_prf.bytes32(b"n", self.nonce_counter);
        bytes[..16].try_into().expect("16 bytes")
    }

    fn install(&mut self, stream: TcpStream, chan: Chan) -> io::Result<ConnId> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.conns.push(None);
            self.gens.push(0);
            (self.conns.len() - 1) as u32
        };
        let gen = self.gens[idx as usize];
        let want_write = chan.out_pending() > 0;
        self.poller
            .add(stream.as_raw_fd(), conn_token(idx, gen), true, want_write)?;
        self.conns[idx as usize] = Some(Conn {
            stream,
            chan,
            peer: None,
            want_write,
            closing: false,
            write_shut: false,
        });
        self.live += 1;
        Ok(ConnId { idx, gen })
    }

    /// Dials `addr`, authenticating as `identity` toward the node the
    /// address belongs to (`expect_peer`). The connect itself is a
    /// plain blocking localhost/LAN connect (a refused one returns at
    /// once, counted in [`EvStats::retries`]); the handshake then runs
    /// through the loop.
    ///
    /// # Errors
    /// Connect/registration failures.
    pub fn connect(
        &mut self,
        addr: SocketAddr,
        identity: NodeId,
        expect_peer: NodeId,
    ) -> io::Result<ConnId> {
        let stream = TcpStream::connect(addr).inspect_err(|_| self.stats.retries += 1)?;
        self.stats.dials += 1;
        let nonce = self.next_nonce();
        let chan = ClientChannel::new(self.cfg.auth.clone(), identity, expect_peer, nonce);
        self.install(stream, Chan::Client(chan))
    }

    /// Live connections (all states).
    pub fn live_conns(&self) -> usize {
        self.live
    }

    /// Whether `id` has completed its handshake: `None` once the
    /// connection is gone.
    pub fn handshake_done(&self, id: ConnId) -> Option<bool> {
        if self.gens.get(id.idx as usize) != Some(&id.gen) {
            return None;
        }
        let conn = self.conns.get(id.idx as usize)?.as_ref()?;
        Some(conn.peer.is_some())
    }

    /// The handles of every live connection.
    fn live_ids(&self) -> Vec<ConnId> {
        self.conns
            .iter()
            .zip(&self.gens)
            .enumerate()
            .filter(|(_, (conn, _))| conn.is_some())
            .map(|(idx, (_, &gen))| ConnId {
                idx: idx as u32,
                gen,
            })
            .collect()
    }

    /// Ends the write side of every connection, now and until
    /// [`EvLoop::close_all`]: each is half-closed once its handshake is
    /// done and its queue has drained, so the FIN follows the last
    /// frame. Reading goes on until the peer closes its side too (a
    /// `Down { reason: Eof }`). Closing a socket over unread bytes sends
    /// a reset instead, and a reset can destroy frames the peer has not
    /// read yet.
    pub fn half_close(&mut self) {
        self.half_closing = true;
        for id in self.live_ids() {
            if matches!(self.flush_conn(id), Flushed::Alive) {
                self.update_interest(id);
            }
        }
    }

    /// Closes every connection at once (no `Down` events) and ends a
    /// [`EvLoop::half_close`]: connections dialed afterwards live as
    /// usual.
    pub fn close_all(&mut self) {
        for id in self.live_ids() {
            self.teardown(id);
        }
        self.half_closing = false;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EvStats {
        self.stats
    }

    /// Queues one envelope on a connection, with opportunistic flush
    /// and slow-consumer shedding: a connection that still has more than
    /// [`EvConfig::write_cap`] bytes queued is shed rather than handed
    /// another frame.
    ///
    /// # Errors
    /// [`EvSendError::Gone`] for a dead handle, [`EvSendError::Shed`]
    /// when this send found the write queue over the cap.
    pub fn send(&mut self, id: ConnId, env: &Envelope) -> Result<(), EvSendError> {
        let write_cap = self.cfg.write_cap;
        let behind = {
            let Some(conn) = slot(&mut self.conns, &self.gens, id) else {
                return Err(EvSendError::Gone);
            };
            if conn.closing {
                return Err(EvSendError::Gone);
            }
            let behind = conn.chan.out_pending() > write_cap;
            if !behind {
                let t = self.recorder.now_ns();
                let sent = conn.chan.send_envelope(env);
                self.recorder.observe_since("net.frame_encode_ns", "", t);
                if sent.is_err() {
                    return Err(EvSendError::Gone);
                }
            }
            behind
        };
        if behind {
            // Slow consumer: it is not draining its socket while we
            // keep producing. Shed it with a typed reject rather than
            // buffer without bound (the reject itself is best-effort —
            // a consumer this far behind may never read it).
            let peer = {
                let conn = slot(&mut self.conns, &self.gens, id).expect("checked live");
                conn.chan.reject(RejectCode::SlowConsumer);
                conn.closing = true;
                conn.peer
            };
            self.stats.shed_slow += 1;
            if matches!(self.flush_conn(id), Flushed::Alive) {
                self.teardown(id);
            }
            self.deferred.push(EvEvent::Down {
                conn: id,
                peer,
                reason: DownReason::Shed,
            });
            return Err(EvSendError::Shed);
        }
        self.stats.frames_out += 1;
        if matches!(self.flush_conn(id), Flushed::Alive) {
            self.update_interest(id);
        }
        Ok(())
    }

    /// Sends a typed reject and closes (e.g. `ShuttingDown` on drain).
    pub fn reject(&mut self, id: ConnId, code: RejectCode) {
        {
            let Some(conn) = slot(&mut self.conns, &self.gens, id) else {
                return;
            };
            conn.chan.reject(code);
            conn.closing = true;
        }
        if matches!(self.flush_conn(id), Flushed::Alive) {
            self.teardown(id);
        }
    }

    /// Closes a connection immediately. No `Down` event is emitted for
    /// locally initiated closes.
    pub fn close(&mut self, id: ConnId) {
        if slot(&mut self.conns, &self.gens, id).is_some() {
            self.teardown(id);
        }
    }

    /// Writes as much of the pending queue as the socket accepts, and
    /// shuts the write side of a drained, established connection once
    /// the loop is half-closing.
    fn flush_conn(&mut self, id: ConnId) -> Flushed {
        let half_closing = self.half_closing;
        loop {
            let Some(conn) = slot(&mut self.conns, &self.gens, id) else {
                return Flushed::Dead;
            };
            let out = conn.chan.outgoing();
            if out.is_empty() {
                if half_closing && !conn.write_shut && conn.peer.is_some() {
                    conn.write_shut = true;
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                }
                return Flushed::Alive;
            }
            match conn.stream.write(out) {
                Ok(0) => {
                    let peer = conn.peer;
                    self.teardown(id);
                    self.deferred.push(EvEvent::Down {
                        conn: id,
                        peer,
                        reason: DownReason::Io,
                    });
                    return Flushed::Dead;
                }
                Ok(n) => {
                    conn.chan.advance_out(n);
                    self.stats.bytes_out += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flushed::Alive,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let peer = conn.peer;
                    self.teardown(id);
                    self.deferred.push(EvEvent::Down {
                        conn: id,
                        peer,
                        reason: DownReason::Io,
                    });
                    return Flushed::Dead;
                }
            }
        }
    }

    fn update_interest(&mut self, id: ConnId) {
        let token = conn_token(id.idx, id.gen);
        let Some(conn) = slot(&mut self.conns, &self.gens, id) else {
            return;
        };
        let want = conn.chan.out_pending() > 0;
        if want != conn.want_write {
            conn.want_write = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, true, want);
        }
    }

    /// Removes the connection and recycles its slot.
    fn teardown(&mut self, id: ConnId) {
        let idx = id.idx as usize;
        if self.gens.get(idx) != Some(&id.gen) {
            return;
        }
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        if conn.peer.is_none() {
            self.stats.auth_failed += 1;
        }
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.gens[idx] = self.gens[idx].wrapping_add(1) & 0x7fff_ffff;
        self.free.push(id.idx);
        self.live -= 1;
        self.stats.closed += 1;
    }

    fn fault_counter(&mut self, fault: ChanFault) {
        match fault {
            // Counted as `auth_failed` when the connection is torn down.
            ChanFault::AuthFailed => {}
            ChanFault::Oversize => self.stats.oversized += 1,
            ChanFault::BadTag | ChanFault::Replay => self.stats.replays += 1,
            _ => self.stats.malformed += 1,
        }
    }

    fn accept_ready(&mut self, listener_idx: usize) {
        loop {
            let &(ref listener, own) = &self.listeners[listener_idx];
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.live >= self.cfg.max_conns {
                        // Admission control: typed reject, best-effort
                        // single write, immediate close.
                        self.stats.rejected_full += 1;
                        let _ = stream.set_nonblocking(true);
                        let mut frame = Vec::with_capacity(6);
                        frame.extend_from_slice(&2u32.to_be_bytes());
                        frame.push(5); // KIND_REJECT
                        frame.push(1); // ServerFull
                        let mut s = stream;
                        let _ = s.write(&frame);
                        continue;
                    }
                    self.stats.accepted += 1;
                    let nonce = self.next_nonce();
                    let chan = ServerChannel::new(self.cfg.auth.clone(), nonce).serving_as(own);
                    if let Ok(id) = self.install(stream, Chan::Server(chan)) {
                        // Push the SERVER_HELLO out now.
                        if matches!(self.flush_conn(id), Flushed::Alive) {
                            self.update_interest(id);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn read_ready(&mut self, id: ConnId, events: &mut Vec<EvEvent>) {
        loop {
            // Field-split borrows: the connection comes from `conns`,
            // the read buffer from `scratch` — disjoint fields.
            let Some(conn) = slot(&mut self.conns, &self.gens, id) else {
                return;
            };
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    let peer = conn.peer;
                    self.teardown(id);
                    events.push(EvEvent::Down {
                        conn: id,
                        peer,
                        reason: DownReason::Eof,
                    });
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let peer = conn.peer;
                    self.teardown(id);
                    events.push(EvEvent::Down {
                        conn: id,
                        peer,
                        reason: DownReason::Io,
                    });
                    return;
                }
            };
            self.stats.bytes_in += n as u64;
            self.chan_events.clear();
            let t = self.recorder.now_ns();
            let overridden = conn.chan.overridden_from();
            conn.chan
                .on_bytes(&self.scratch[..n], &mut self.chan_events);
            self.stats.from_overridden += conn.chan.overridden_from() - overridden;
            self.recorder.observe_since("net.frame_decode_ns", "", t);
            let mut down: Option<DownReason> = None;
            let mut chan_events = std::mem::take(&mut self.chan_events);
            for ev in chan_events.drain(..) {
                match ev {
                    ChanEvent::Up { peer, session } => {
                        self.stats.authenticated += 1;
                        if let Some(conn) = slot(&mut self.conns, &self.gens, id) {
                            conn.peer = Some(peer);
                        }
                        events.push(EvEvent::Up {
                            conn: id,
                            peer,
                            session,
                        });
                    }
                    ChanEvent::Frame(env) => {
                        self.stats.frames_in += 1;
                        events.push(EvEvent::Frame { conn: id, env });
                    }
                    ChanEvent::PeerReject(code) => {
                        self.stats.rejected += 1;
                        down = Some(DownReason::PeerReject(code));
                    }
                    ChanEvent::Fault(fault) => {
                        self.fault_counter(fault);
                        down = Some(DownReason::Fault(fault));
                    }
                }
            }
            self.chan_events = chan_events;
            if let Some(reason) = down {
                // Flush the queued typed reject best-effort, then drop.
                let peer = slot(&mut self.conns, &self.gens, id).and_then(|c| c.peer);
                let _ = self.flush_conn(id);
                self.teardown(id);
                events.push(EvEvent::Down {
                    conn: id,
                    peer,
                    reason,
                });
                return;
            }
            if n < self.scratch.len() {
                // A short read took all the socket held, and the poller is
                // level-triggered: what arrives next, EOF included, is
                // reported by the next wait.
                break;
            }
        }
        // Handshake replies and queued envelopes may now be pending.
        if matches!(self.flush_conn(id), Flushed::Alive) {
            self.update_interest(id);
        }
    }

    /// Waits for readiness and translates it into events. `timeout` is
    /// the maximum park time (`None` blocks until traffic).
    ///
    /// # Errors
    /// Fatal poller failures (per-connection I/O errors surface as
    /// `Down` events instead).
    pub fn poll(&mut self, timeout: Option<Duration>, events: &mut Vec<EvEvent>) -> io::Result<()> {
        if !self.deferred.is_empty() {
            events.append(&mut self.deferred);
        }
        let timeout = if events.is_empty() {
            timeout
        } else {
            Some(Duration::ZERO)
        };
        let mut poll_buf = std::mem::take(&mut self.poll_buf);
        poll_buf.clear();
        if let Err(e) = self.poller.wait(timeout, &mut poll_buf) {
            self.poll_buf = poll_buf;
            return Err(e);
        }
        for ev in &poll_buf {
            if ev.token & LISTENER_BIT != 0 {
                let idx = (ev.token & !LISTENER_BIT) as usize;
                self.accept_ready(idx);
                continue;
            }
            let id = ConnId {
                idx: ev.token as u32,
                gen: (ev.token >> 32) as u32,
            };
            if ev.readiness.writable && matches!(self.flush_conn(id), Flushed::Alive) {
                self.update_interest(id);
                // A closing connection lingers only to flush its
                // reject; once drained, drop it.
                let drained = slot(&mut self.conns, &self.gens, id)
                    .map(|c| c.closing && c.chan.out_pending() == 0)
                    .unwrap_or(false);
                if drained {
                    self.teardown(id);
                }
            }
            if ev.readiness.readable || ev.readiness.hangup || ev.readiness.error {
                self.read_ready(id, events);
            }
        }
        if !self.deferred.is_empty() {
            events.append(&mut self.deferred);
        }
        self.poll_buf = poll_buf;
        Ok(())
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use ddemos_protocol::messages::Msg;

    fn secret() -> [u8; 32] {
        [42u8; 32]
    }

    fn cfg() -> EvConfig {
        EvConfig::new(AuthConfig::new(secret()), [3u8; 32])
    }

    fn env(from: NodeId, to: NodeId) -> Envelope {
        Envelope {
            from,
            to,
            msg: Msg::ClosePolls,
        }
    }

    /// Drives both loops until `pred` is satisfied or the deadline
    /// passes, collecting events per loop.
    fn pump_until(
        loops: &mut [&mut EvLoop],
        sink: &mut Vec<Vec<EvEvent>>,
        mut pred: impl FnMut(&[Vec<EvEvent>]) -> bool,
    ) {
        // lint:allow(wall-clock, test harness deadline over real sockets)
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut scratch = Vec::new();
        while !pred(sink) {
            // lint:allow(wall-clock, test harness deadline over real sockets)
            assert!(
                std::time::Instant::now() < deadline,
                "pump timed out: {sink:?}"
            );
            for (i, lp) in loops.iter_mut().enumerate() {
                scratch.clear();
                lp.poll(Some(Duration::from_millis(5)), &mut scratch)
                    .expect("poll");
                sink[i].append(&mut scratch);
            }
        }
    }

    #[test]
    fn end_to_end_authenticated_echo() {
        let mut server = EvLoop::new(cfg()).expect("server loop");
        let addr = server
            .listen("127.0.0.1:0".parse().expect("addr"), NodeId::vc(0))
            .expect("listen");
        let mut client = EvLoop::new(cfg()).expect("client loop");
        let conn = client
            .connect(addr, NodeId::client(7), NodeId::vc(0))
            .expect("connect");

        let mut sink = vec![Vec::new(), Vec::new()];
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[0].iter().any(|e| matches!(e, EvEvent::Up { .. }))
                && s[1].iter().any(|e| matches!(e, EvEvent::Up { .. }))
        });
        let EvEvent::Up {
            peer, conn: sconn, ..
        } = &sink[0][0]
        else {
            panic!("expected server Up, got {:?}", sink[0]);
        };
        assert_eq!(*peer, NodeId::client(7));
        let sconn = *sconn;

        // Client → server, with a spoofed from: the channel identity
        // wins on delivery.
        client
            .send(conn, &env(NodeId::client(0), NodeId::vc(0)))
            .expect("send");
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[0].iter().any(|e| matches!(e, EvEvent::Frame { .. }))
        });
        let frame = sink[0]
            .iter()
            .find_map(|e| match e {
                EvEvent::Frame { env, .. } => Some(env.clone()),
                _ => None,
            })
            .expect("frame");
        assert_eq!(frame.from, NodeId::client(7), "from is channel-derived");

        // Server → client over the same channel.
        server
            .send(sconn, &env(NodeId::vc(0), NodeId::client(7)))
            .expect("send");
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[1].iter().any(|e| matches!(e, EvEvent::Frame { .. }))
        });
        assert_eq!(server.stats().from_overridden, 1);
        assert_eq!(server.stats().authenticated, 1);
    }

    /// A client holding the cluster secret still cannot handshake as the
    /// node whose listener it dials.
    #[test]
    fn a_client_claiming_the_listeners_identity_is_refused() {
        let mut server = EvLoop::new(cfg()).expect("server loop");
        let addr = server
            .listen("127.0.0.1:0".parse().expect("addr"), NodeId::bb(0))
            .expect("listen");
        let mut client = EvLoop::new(cfg()).expect("client loop");
        client
            .connect(addr, NodeId::bb(0), NodeId::bb(0))
            .expect("connect");
        let mut sink = vec![Vec::new(), Vec::new()];
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[1].iter().any(|e| {
                matches!(
                    e,
                    EvEvent::Down {
                        reason: DownReason::PeerReject(RejectCode::AuthFailed),
                        ..
                    }
                )
            })
        });
        assert!(!sink[0].iter().any(|e| matches!(e, EvEvent::Up { .. })));
        assert_eq!(server.stats().authenticated, 0);
    }

    #[test]
    fn admission_limit_rejects_with_server_full() {
        let mut evcfg = cfg();
        evcfg.max_conns = 1;
        let mut server = EvLoop::new(evcfg).expect("server loop");
        let addr = server
            .listen("127.0.0.1:0".parse().expect("addr"), NodeId::vc(0))
            .expect("listen");
        let mut client = EvLoop::new(cfg()).expect("client loop");
        let c1 = client
            .connect(addr, NodeId::client(1), NodeId::vc(0))
            .expect("connect 1");
        let mut sink = vec![Vec::new(), Vec::new()];
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[1].iter().any(|e| matches!(e, EvEvent::Up { .. }))
        });
        let _c2 = client
            .connect(addr, NodeId::client(2), NodeId::vc(0))
            .expect("connect 2");
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[1].iter().any(|e| {
                matches!(
                    e,
                    EvEvent::Down {
                        reason: DownReason::PeerReject(RejectCode::ServerFull),
                        ..
                    }
                ) || matches!(
                    e,
                    EvEvent::Down {
                        reason: DownReason::Eof,
                        ..
                    }
                )
            })
        });
        assert_eq!(server.stats().rejected_full, 1);
        assert_eq!(server.live_conns(), 1);
        let _ = c1;
    }

    #[test]
    fn half_open_close_downs_the_connection() {
        let mut server = EvLoop::new(cfg()).expect("server loop");
        let addr = server
            .listen("127.0.0.1:0".parse().expect("addr"), NodeId::vc(0))
            .expect("listen");
        let mut client = EvLoop::new(cfg()).expect("client loop");
        let conn = client
            .connect(addr, NodeId::client(1), NodeId::vc(0))
            .expect("connect");
        let mut sink = vec![Vec::new(), Vec::new()];
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[0].iter().any(|e| matches!(e, EvEvent::Up { .. }))
        });
        // Close the client side entirely; the server must observe EOF
        // and tear the connection down rather than hold it half-open.
        client.close(conn);
        pump_until(&mut [&mut server, &mut client], &mut sink, |s| {
            s[0].iter().any(|e| {
                matches!(
                    e,
                    EvEvent::Down {
                        reason: DownReason::Eof,
                        ..
                    }
                )
            })
        });
        assert_eq!(server.live_conns(), 0);
    }

    #[test]
    fn stale_conn_id_is_gone_after_slot_reuse() {
        let mut server = EvLoop::new(cfg()).expect("server loop");
        let addr = server
            .listen("127.0.0.1:0".parse().expect("addr"), NodeId::vc(0))
            .expect("listen");
        let mut client = EvLoop::new(cfg()).expect("client loop");
        let c1 = client
            .connect(addr, NodeId::client(1), NodeId::vc(0))
            .expect("connect");
        client.close(c1);
        let c2 = client
            .connect(addr, NodeId::client(2), NodeId::vc(0))
            .expect("connect");
        assert_ne!(c1, c2, "generation must differ on slot reuse");
        assert_eq!(
            client.send(c1, &env(NodeId::client(1), NodeId::vc(0))),
            Err(EvSendError::Gone)
        );
    }
}
