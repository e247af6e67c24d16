//! The replica-side endpoint over the [`crate::evloop`] front door.
//!
//! A VC or BB replica main wants exactly one thing from its network: a
//! [`TransportEndpoint`]. This module provides it over an owned
//! [`EvLoop`]: one epoll instance serving the replica's listener plus
//! every authenticated connection — inbound voters and coordinator
//! control channels, outbound replica-to-replica consensus dials — with
//! **no thread per peer** and flat per-connection memory. The loop is
//! pumped by whichever node thread calls `recv_timeout` / `try_recv`.
//! The unchanged `VcDriver` / BB serve loop runs on top, which is what
//! keeps a same-seed election through this endpoint byte-identical to
//! the in-process run: the cores never see a different input order than
//! their own envelope stream.
//!
//! Routing is identity-based: every handshake (`EvEvent::Up`) binds a
//! connection to its authenticated [`NodeId`], and sends look the
//! target up in that route table first, falling back to a dial against
//! the static peer table. An envelope addressed to the node itself never
//! touches a socket: it goes straight to the node's own inbox. A peer
//! without a listener (the coordinator, voters) is reachable exactly
//! while its own inbound connection is up — which is the shape the
//! protocol needs: finalized vote sets travel back over the
//! coordinator's authenticated control connection, and receipts over the
//! voter's own channel.

use crate::evloop::{ConnId, EvConfig, EvEvent, EvLoop, EvStats};
use crate::transport::TransportEndpoint;
use crossbeam_channel::{RecvError, RecvTimeoutError};
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::NodeId;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A [`TransportEndpoint`] owning an [`EvLoop`]: the replica's single
/// readiness loop.
pub struct EvNodeEndpoint {
    id: NodeId,
    local: SocketAddr,
    inner: Mutex<Inner>,
    start: Instant,
}

struct Inner {
    lp: EvLoop,
    /// Static peer table (replicas with listeners) for dial-on-demand.
    peers: HashMap<NodeId, SocketAddr>,
    /// Authenticated identity → live connection.
    routes: HashMap<NodeId, ConnId>,
    /// Envelopes surfaced by the loop, pending receipt.
    inbox: VecDeque<Envelope>,
    /// Scratch event buffer (reused across polls).
    events: Vec<EvEvent>,
    /// The poller failed; receivers see `Disconnected` once the inbox
    /// is drained.
    dead: bool,
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
        let local = lp.listen(listen)?;
        Ok(EvNodeEndpoint {
            id,
            local,
            inner: Mutex::new(Inner {
                lp,
                peers: peers.into_iter().collect(),
                routes: HashMap::new(),
                inbox: VecDeque::new(),
                events: Vec::new(),
                dead: false,
            }),
            // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
            start: Instant::now(),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
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
    /// One poll pass: surface frames into the inbox, maintain routes.
    fn pump(&mut self, timeout: Duration) {
        if self.dead {
            return;
        }
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
                EvEvent::Frame { env, .. } => self.inbox.push_back(env),
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
    }

    /// Route lookup with dial-on-demand. Outbound dials register their
    /// route immediately — the channel queues envelopes until its
    /// handshake completes, so sends never race the `Up` event.
    fn route(&mut self, me: NodeId, to: NodeId) -> Option<ConnId> {
        if let Some(&conn) = self.routes.get(&to) {
            return Some(conn);
        }
        let addr = *self.peers.get(&to)?;
        let conn = self.lp.connect(addr, me, to).ok()?;
        self.routes.insert(to, conn);
        Some(conn)
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
        if to == self.id {
            // A node is its own peer in every multicast (a collector
            // counts its own receipt share and consensus votes): loop the
            // envelope back into the inbox, as SimNet does.
            inner.inbox.push_back(env);
            return;
        }
        let Some(conn) = inner.route(self.id, to) else {
            // No live route and no listener to dial: best-effort drop,
            // like a lossy network.
            return;
        };
        if inner.lp.send(conn, &env).is_err() {
            // Stale route (the peer vanished between polls): retire it
            // and retry through a fresh dial, once.
            inner.routes.remove(&to);
            if let Some(conn) = inner.route(self.id, to) {
                let _ = inner.lp.send(conn, &env);
            }
        }
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
            if inner.dead {
                return Err(RecvTimeoutError::Disconnected);
            }
            // lint:allow(wall-clock, real-transport time base; the sim path uses virtual clocks)
            let remaining = deadline.saturating_duration_since(Instant::now());
            if polled && remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.pump(remaining);
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
}
