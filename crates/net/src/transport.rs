//! The transport boundary under the sans-I/O node cores.
//!
//! Protocol logic (the `VcCore`/`BbCore` state machines in `ddemos-vc` /
//! `ddemos-bb`) never touches a socket or a channel: node *drivers* pump
//! envelopes between a core and a [`TransportEndpoint`]. This module
//! defines that boundary:
//!
//! * [`Transport`] — a message-oriented network a node can register with
//!   (`register`/`shutdown`; sending and receiving happen on the endpoint
//!   it hands back).
//! * [`TransportEndpoint`] — one node's attachment: identity, `send`,
//!   blocking/timeout/non-blocking `recv`, the transport's time base, and
//!   an optional virtual-time actor hook.
//!
//! Two implementations ship here: the in-process [`SimNet`]
//! (latency/fault emulation, optional virtual time — every existing
//! simulation behavior, unchanged) and [`crate::tcp::TcpTransport`]
//! (length-prefixed frames over real localhost/LAN sockets, one process
//! per replica). Drivers written against this trait run over either.
//!
//! The endpoint surface is split in two:
//!
//! * [`TransportEndpoint`] — the historic blocking API. Clients
//!   (voters, the coordinator, tests) keep using it unchanged.
//! * [`EventEndpoint`] — the non-blocking, poll-based API node drivers
//!   run on: `wait` for readiness, `try_recv` to drain, and a
//!   write-queue gauge for backpressure-aware callers. This is the
//!   shape the readiness-driven [`crate::evloop`] front door exposes
//!   natively; a readiness loop cannot afford a blocking `recv` parked
//!   inside one connection while ten thousand others starve.
//!
//! Adapters convert in both directions — [`EventAdapter`] lifts any
//! blocking endpoint into the event API (so `SimNet` and `TcpTransport`
//! drive the migrated node drivers with zero behavior change), and
//! [`BlockingAdapter`] wraps an event endpoint back into the blocking
//! API so existing tests and client code run unchanged.

use crate::simnet::{Endpoint, SimNet};
use crossbeam_channel::{RecvError, RecvTimeoutError};
use ddemos_protocol::clock::ActorGuard;
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::NodeId;
use std::time::Duration;

/// One node's attachment to a transport: an identity plus an inbox.
///
/// `recv_timeout` is interpreted in the transport's own time base —
/// virtual time under a virtual-clock [`SimNet`], wall time otherwise —
/// as is [`TransportEndpoint::now_ns`], so patience and latency
/// measurements hold in both.
pub trait TransportEndpoint: Send {
    /// This endpoint's node id.
    fn id(&self) -> NodeId;

    /// Sends a message to `to`, stamping this endpoint's id as the
    /// source. Sending is best-effort and non-blocking: delivery failures
    /// surface as the peer never answering, exactly like a lossy network.
    fn send(&self, to: NodeId, msg: Msg);

    /// Blocking receive.
    ///
    /// # Errors
    /// Returns `Err` when the transport has shut down.
    fn recv(&self) -> Result<Envelope, RecvError>;

    /// Receive with a timeout in the transport's time base.
    ///
    /// # Errors
    /// `Timeout` when no message arrived, `Disconnected` on shutdown.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError>;

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Envelope>;

    /// Envelopes buffered in the inbound direction, as
    /// [`EventEndpoint::read_pending`] reports them through
    /// [`EventAdapter`]. Implementations without visibility return `0`.
    fn read_pending(&self) -> usize {
        0
    }

    /// Nanoseconds of transport time since the transport started.
    fn now_ns(&self) -> u64;

    /// Registers the current thread as a virtual-time actor, when the
    /// transport is driven by a virtual clock (`None` otherwise). Node
    /// drivers call this so the clock never advances while they are
    /// processing.
    fn actor_guard(&self) -> Option<ActorGuard> {
        None
    }
}

/// A boxed endpoint (what [`Transport::register`] hands out).
pub type DynEndpoint = Box<dyn TransportEndpoint>;

impl<T: TransportEndpoint + ?Sized> TransportEndpoint for Box<T> {
    fn id(&self) -> NodeId {
        (**self).id()
    }

    fn send(&self, to: NodeId, msg: Msg) {
        (**self).send(to, msg);
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        (**self).recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        (**self).recv_timeout(timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        (**self).try_recv()
    }

    fn read_pending(&self) -> usize {
        (**self).read_pending()
    }

    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        (**self).actor_guard()
    }
}

/// Outcome of [`EventEndpoint::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// At least one envelope is buffered: the next
    /// [`EventEndpoint::try_recv`] returns `Some`.
    Ready,
    /// The timeout elapsed (in the transport's time base) with nothing
    /// to read.
    Timeout,
    /// The transport has shut down. Drain any remaining envelopes with
    /// `try_recv`, then stop.
    Closed,
}

/// The non-blocking, poll-based endpoint surface node drivers run on.
///
/// Where [`TransportEndpoint::recv`] parks the calling thread inside
/// one inbox, an event endpoint separates *readiness* ([`wait`]) from
/// *consumption* ([`try_recv`]): `wait` returns as soon as something is
/// buffered (or the timeout fires, or the transport closes), and
/// `try_recv` never blocks. [`write_pending`] exposes the outbound
/// queue depth so callers can shed load instead of buffering without
/// bound.
///
/// `wait`'s timeout and [`now_ns`] are interpreted in the transport's
/// own time base — virtual time under a virtual-clock [`SimNet`], wall
/// time otherwise — exactly like the blocking API, so drivers behave
/// identically over either.
///
/// [`wait`]: EventEndpoint::wait
/// [`try_recv`]: EventEndpoint::try_recv
/// [`write_pending`]: EventEndpoint::write_pending
/// [`now_ns`]: EventEndpoint::now_ns
pub trait EventEndpoint: Send {
    /// This endpoint's node id.
    fn id(&self) -> NodeId;

    /// Sends a message to `to`, stamping this endpoint's id as the
    /// source. Best-effort and non-blocking, like
    /// [`TransportEndpoint::send`].
    fn send(&self, to: NodeId, msg: Msg);

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Envelope>;

    /// Blocks until an envelope is ready, the timeout elapses, or the
    /// transport shuts down. After [`Wait::Ready`], the next
    /// [`EventEndpoint::try_recv`] is guaranteed to return `Some`.
    fn wait(&self, timeout: Duration) -> Wait;

    /// Bytes (or messages, for queue-based transports) waiting in the
    /// outbound direction. `0` means every send so far has been handed
    /// to the wire; implementations without visibility return `0`.
    fn write_pending(&self) -> usize {
        0
    }

    /// Envelopes buffered in the inbound direction, i.e. the queue depth
    /// a driver is about to drain. Implementations without visibility
    /// return `0`. The figure races with concurrent senders by nature —
    /// metrics built on it must be marked unstable.
    fn read_pending(&self) -> usize {
        0
    }

    /// Nanoseconds of transport time since the transport started.
    fn now_ns(&self) -> u64;

    /// Registers the current thread as a virtual-time actor, when the
    /// transport is driven by a virtual clock (`None` otherwise).
    fn actor_guard(&self) -> Option<ActorGuard> {
        None
    }
}

/// A boxed event endpoint (what [`Transport::register_event`] hands
/// out).
pub type DynEventEndpoint = Box<dyn EventEndpoint>;

impl<E: EventEndpoint + ?Sized> EventEndpoint for Box<E> {
    fn id(&self) -> NodeId {
        (**self).id()
    }

    fn send(&self, to: NodeId, msg: Msg) {
        (**self).send(to, msg);
    }

    fn try_recv(&self) -> Option<Envelope> {
        (**self).try_recv()
    }

    fn wait(&self, timeout: Duration) -> Wait {
        (**self).wait(timeout)
    }

    fn write_pending(&self) -> usize {
        (**self).write_pending()
    }

    fn read_pending(&self) -> usize {
        (**self).read_pending()
    }

    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        (**self).actor_guard()
    }
}

/// Lifts a blocking [`TransportEndpoint`] into the [`EventEndpoint`]
/// API.
///
/// `wait` is `recv_timeout` into a one-envelope slot that the next
/// `try_recv` drains first, preserving order. Because the inner
/// endpoint's `recv_timeout` already runs in the transport's time base,
/// the adapter is exact under virtual time: a driver migrated from
/// `recv_timeout` loops to `wait`/`try_recv` loops sees the identical
/// envelope/timeout sequence.
pub struct EventAdapter<T: TransportEndpoint> {
    inner: T,
    slot: std::sync::Mutex<Option<Envelope>>,
}

impl<T: TransportEndpoint> EventAdapter<T> {
    /// Wraps a blocking endpoint.
    pub fn new(inner: T) -> Self {
        EventAdapter {
            inner,
            slot: std::sync::Mutex::new(None),
        }
    }
}

impl<T: TransportEndpoint> EventEndpoint for EventAdapter<T> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&self, to: NodeId, msg: Msg) {
        self.inner.send(to, msg);
    }

    fn try_recv(&self) -> Option<Envelope> {
        let mut slot = self.slot.lock().expect("slot poisoned");
        slot.take().or_else(|| self.inner.try_recv())
    }

    fn wait(&self, timeout: Duration) -> Wait {
        {
            let slot = self.slot.lock().expect("slot poisoned");
            if slot.is_some() {
                return Wait::Ready;
            }
        }
        match self.inner.recv_timeout(timeout) {
            Ok(env) => {
                *self.slot.lock().expect("slot poisoned") = Some(env);
                Wait::Ready
            }
            Err(RecvTimeoutError::Timeout) => Wait::Timeout,
            Err(RecvTimeoutError::Disconnected) => Wait::Closed,
        }
    }

    fn read_pending(&self) -> usize {
        let stashed = self.slot.lock().expect("slot poisoned").is_some();
        usize::from(stashed) + self.inner.read_pending()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        self.inner.actor_guard()
    }
}

/// Wraps an [`EventEndpoint`] back into the blocking
/// [`TransportEndpoint`] API, so client code written against the
/// historic surface (voters, auditors, tests) runs unchanged over an
/// event-native transport.
///
/// Deadlines are computed against the endpoint's [`now_ns`] — the
/// transport's own time base — so timeouts stay correct under virtual
/// time.
///
/// [`now_ns`]: EventEndpoint::now_ns
pub struct BlockingAdapter<E: EventEndpoint> {
    inner: E,
}

impl<E: EventEndpoint> BlockingAdapter<E> {
    /// Wraps an event endpoint.
    pub fn new(inner: E) -> Self {
        BlockingAdapter { inner }
    }
}

impl<E: EventEndpoint> TransportEndpoint for BlockingAdapter<E> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&self, to: NodeId, msg: Msg) {
        self.inner.send(to, msg);
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        loop {
            if let Some(env) = self.inner.try_recv() {
                return Ok(env);
            }
            // Any generous slice works here: the loop re-checks on
            // every wakeup, Ready or not.
            if let Wait::Closed = self.inner.wait(Duration::from_secs(3600)) {
                return self.inner.try_recv().ok_or(RecvError);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let deadline = self
            .inner
            .now_ns()
            .saturating_add(timeout.as_nanos().min(u128::from(u64::MAX)) as u64);
        loop {
            if let Some(env) = self.inner.try_recv() {
                return Ok(env);
            }
            let now = self.inner.now_ns();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            match self.inner.wait(Duration::from_nanos(deadline - now)) {
                Wait::Ready | Wait::Timeout => {}
                Wait::Closed => {
                    return self.inner.try_recv().ok_or(RecvTimeoutError::Disconnected);
                }
            }
        }
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.inner.try_recv()
    }

    fn read_pending(&self) -> usize {
        self.inner.read_pending()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        self.inner.actor_guard()
    }
}

/// A message-oriented network nodes register with.
pub trait Transport: Send + Sync {
    /// Registers a node, returning its endpoint.
    ///
    /// # Panics
    /// Implementations may panic if the id is already registered.
    fn register(&self, id: NodeId) -> DynEndpoint;

    /// Registers a node on the event (poll-based) surface. The default
    /// lifts the blocking endpoint through [`EventAdapter`];
    /// event-native transports override it.
    ///
    /// # Panics
    /// Implementations may panic if the id is already registered.
    fn register_event(&self, id: NodeId) -> DynEventEndpoint {
        Box::new(EventAdapter::new(self.register(id)))
    }

    /// Stops the transport; pending messages are dropped and blocked
    /// receivers are released.
    fn shutdown(&self);
}

impl TransportEndpoint for Endpoint {
    fn id(&self) -> NodeId {
        Endpoint::id(self)
    }

    fn send(&self, to: NodeId, msg: Msg) {
        Endpoint::send(self, to, msg);
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        Endpoint::recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        Endpoint::try_recv(self)
    }

    fn read_pending(&self) -> usize {
        Endpoint::read_pending(self)
    }

    fn now_ns(&self) -> u64 {
        Endpoint::now_ns(self)
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        Endpoint::actor_guard(self)
    }
}

impl EventEndpoint for Endpoint {
    fn id(&self) -> NodeId {
        Endpoint::id(self)
    }

    fn send(&self, to: NodeId, msg: Msg) {
        Endpoint::send(self, to, msg);
    }

    fn try_recv(&self) -> Option<Envelope> {
        Endpoint::event_try_recv(self)
    }

    fn wait(&self, timeout: Duration) -> Wait {
        Endpoint::event_wait(self, timeout)
    }

    fn read_pending(&self) -> usize {
        Endpoint::read_pending(self)
    }

    fn now_ns(&self) -> u64 {
        Endpoint::now_ns(self)
    }

    fn actor_guard(&self) -> Option<ActorGuard> {
        Endpoint::actor_guard(self)
    }
}

impl Transport for SimNet {
    fn register(&self, id: NodeId) -> DynEndpoint {
        Box::new(SimNet::register(self, id))
    }

    fn register_event(&self, id: NodeId) -> DynEventEndpoint {
        Box::new(SimNet::register(self, id))
    }

    fn shutdown(&self) {
        SimNet::shutdown(self);
    }
}
