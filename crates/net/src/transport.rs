//! The transport boundary under the sans-I/O node cores.
//!
//! Protocol logic (the `VcCore`/`BbCore` state machines in `ddemos-vc` /
//! `ddemos-bb`) never touches a socket or a channel: node *drivers* pump
//! envelopes between a core and a [`TransportEndpoint`] — one node's
//! attachment to a network: identity, `send`, blocking/timeout/
//! non-blocking `recv`, the inbound queue depth, the transport's time
//! base, and an optional virtual-time actor hook.
//!
//! Two endpoints implement it: the in-process [`crate::SimNet`]'s
//! [`Endpoint`] (latency/fault emulation, optional virtual time) and the
//! socket endpoint [`crate::EvNodeEndpoint`], one epoll loop per party
//! speaking the [`crate::auth`] authenticated channels — a replica's
//! with its listener, a client's without one, reading its own sockets
//! on its caller's thread and closing them when dropped. A driver
//! waits with `recv_timeout` and drains the burst behind it with
//! `try_recv`; that is the whole poll surface.
//!
//! Every endpoint a node driver runs on keeps one contract (checked by
//! this module's tests): an envelope a node addresses to itself is
//! delivered, envelopes from one sender arrive in send order,
//! `recv_timeout` on an empty inbox times out, a closed transport
//! reports `Disconnected`, and [`TransportEndpoint::read_pending`] counts
//! what is buffered behind the envelope in hand.

use crate::simnet::Endpoint;
use crossbeam_channel::{RecvError, RecvTimeoutError};
use ddemos_protocol::clock::ActorGuard;
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::NodeId;
use std::time::Duration;

/// One node's attachment to a transport: an identity plus an inbox.
///
/// `recv_timeout` is interpreted in the transport's own time base —
/// virtual time under a virtual-clock [`crate::SimNet`], wall time
/// otherwise — as is [`TransportEndpoint::now_ns`], so patience and
/// latency measurements hold in both.
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

    /// Envelopes buffered in the inbound direction, not counting one a
    /// `recv` already handed out. Implementations without visibility
    /// return `0`. The figure races with concurrent senders by nature —
    /// metrics built on it must be marked unstable.
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

    /// Ends the endpoint's own connections in order, waiting up to
    /// `patience` for each peer to close its end, so that nothing sent
    /// just before is lost to a reset. An endpoint that holds no
    /// connections has nothing to do.
    fn close(&self, _patience: Duration) {}
}

/// A boxed endpoint (what node drivers and harness clients hold).
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

    fn close(&self, patience: Duration) {
        (**self).close(patience);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::NetworkProfile;
    use crate::simnet::SimNet;
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_protocol::SerialNo;
    use std::time::Instant;

    /// How long any one expected envelope may take to show up.
    const PATIENCE: Duration = Duration::from_secs(10);

    fn vote(n: u64) -> Msg {
        Msg::Vote {
            request_id: n,
            serial: SerialNo(n),
            vote_code: VoteCode([0; 20]),
        }
    }

    fn serial(env: &Envelope) -> u64 {
        match env.msg {
            Msg::Vote { serial, .. } => serial.0,
            _ => panic!("unexpected message {}", env.msg.kind()),
        }
    }

    /// The endpoint contract, checked on `ep`. `peer` is another node's
    /// endpoint that can reach `ep` (it sends from its own thread, so a
    /// peer that must handshake with `ep` can while `ep` receives);
    /// `close` ends `ep`'s transport.
    fn check_contract(ep: &dyn TransportEndpoint, peer: DynEndpoint, close: impl FnOnce()) {
        let me = ep.id();

        // An empty inbox times out.
        assert_eq!(
            ep.recv_timeout(Duration::from_millis(20)).err(),
            Some(RecvTimeoutError::Timeout)
        );

        // A node is its own peer in every multicast: what it addresses
        // to itself comes back, stamped with its own id.
        ep.send(me, vote(0));
        let env = ep.recv_timeout(PATIENCE).expect("self-addressed envelope");
        assert_eq!((env.from, env.to, serial(&env)), (me, me, 0));

        // Per-sender FIFO.
        let from = peer.id();
        let sender = std::thread::spawn(move || {
            for n in 1..=5 {
                peer.send(me, vote(n));
            }
        });
        for n in 1..=5 {
            let env = ep.recv_timeout(PATIENCE).expect("peer envelope");
            assert_eq!((env.from, serial(&env)), (from, n));
        }
        sender.join().expect("sender thread");

        // `read_pending` counts what is buffered behind the envelope in
        // hand (what a driver's burst is about to drain).
        for n in 6..9 {
            ep.send(me, vote(n));
        }
        assert_eq!(serial(&ep.recv_timeout(PATIENCE).expect("burst head")), 6);
        let deadline = Instant::now() + PATIENCE;
        while ep.read_pending() < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(ep.read_pending(), 2);
        assert_eq!(ep.try_recv().as_ref().map(serial), Some(7));
        assert_eq!(ep.read_pending(), 1);
        assert_eq!(ep.try_recv().as_ref().map(serial), Some(8));
        assert_eq!(ep.read_pending(), 0);
        assert!(ep.try_recv().is_none());

        // A closed transport disconnects its receivers.
        close();
        assert_eq!(
            ep.recv_timeout(PATIENCE).err(),
            Some(RecvTimeoutError::Disconnected)
        );
        assert!(ep.recv().is_err());
    }

    #[test]
    fn simnet_endpoint_meets_the_contract() {
        let net = SimNet::new(NetworkProfile::instant(), 1);
        let ep = net.register(NodeId::vc(0));
        let peer = Box::new(net.register(NodeId::vc(1)));
        check_contract(&ep, peer, || net.shutdown());
    }

    /// A replica endpoint on a loopback port, and a client transport
    /// whose peer table names it.
    #[cfg(target_os = "linux")]
    fn replica_and_clients() -> (crate::EvNodeEndpoint, crate::AuthTransport) {
        use crate::auth::{seeded_secret, AuthConfig};
        use crate::evloop::EvConfig;

        let auth = AuthConfig::new(seeded_secret(7));
        let replica = crate::EvNodeEndpoint::bind(
            NodeId::vc(0),
            "127.0.0.1:0".parse().expect("addr"),
            Vec::new(),
            EvConfig::new(auth.clone(), [1; 32]),
        )
        .expect("bind");
        let listener = replica.local_addr().expect("listener");
        let clients = crate::AuthTransport::new(vec![(replica.id(), listener)], auth, [2; 32]);
        (replica, clients)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn evnode_endpoint_meets_the_contract() {
        let (ep, clients) = replica_and_clients();
        let peer = Box::new(clients.register(NodeId::client(3)).expect("client"));
        check_contract(&ep, peer, || ep.kill_poller());
        clients.shutdown();
    }

    /// A client endpoint has no listener: its peer reaches it over the
    /// connection the client dialed first.
    #[cfg(target_os = "linux")]
    #[test]
    fn client_endpoint_meets_the_contract() {
        let (server, clients) = replica_and_clients();
        let ep = clients.register(NodeId::client(3)).expect("client");
        assert_eq!(ep.local_addr(), None);
        // The send completes the client's handshake, so the server
        // receives on a thread of its own meanwhile.
        let hello = std::thread::scope(|s| {
            let received = s.spawn(|| server.recv_timeout(PATIENCE));
            ep.send(server.id(), vote(100));
            received.join().expect("server thread")
        })
        .expect("the client's envelope");
        assert_eq!((hello.from, serial(&hello)), (ep.id(), 100));
        check_contract(&ep, Box::new(server), || clients.shutdown());
    }
}
