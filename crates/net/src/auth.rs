//! Authenticated channel protocol: the sans-I/O state machines the
//! event loop speaks on every connection.
//!
//! A raw envelope frame names its own sender in [`Envelope::from`], so
//! on a bare socket anyone could impersonate the coordinator and shut a
//! replica down. Every socket here runs a seeded handshake that binds
//! the connection to a [`NodeId`] identity key; after the handshake,
//! `from` is derived from the *channel*, never trusted from the frame.
//!
//! ## Wire protocol
//!
//! Every message is `len: u32 BE || kind: u8 || body`, where `len`
//! covers the kind byte and body:
//!
//! | kind | name          | body |
//! |------|---------------|------|
//! | 1    | SERVER_HELLO  | `ver(1) || server_nonce(16)` |
//! | 2    | CLIENT_HELLO  | `ver(1) || id_kind(1) || id_index(4 BE) || client_nonce(16) || mac(32)` |
//! | 3    | SERVER_ACCEPT | `session_id(8 BE) || mac(32)` |
//! | 4    | DATA          | `seq(8 BE) || tag(16) || payload` |
//! | 5    | REJECT        | `code(1)` |
//!
//! The DATA payload is the existing CRC-framed canonical envelope
//! encoding ([`ddemos_protocol::codec::encode_envelope_frame`]).
//!
//! ## Keys and sessions
//!
//! All parties share a 32-byte cluster secret (in this reproduction it
//! is PRF-derived from the election seed — a stand-in for out-of-band
//! key distribution, exactly like the deterministic EA setup). Each
//! identity's key is `K_id = HMAC(secret, "key" || id)`. A handshake
//! mixes a server nonce and a client nonce into a **session key**
//! `K_s = HMAC(K_id, "sess" || sn || cn)`; every DATA frame carries a
//! strictly sequential `seq` and a 16-byte truncated
//! `HMAC(K_s, dir || seq || payload)` tag. Because `K_s` is fresh per
//! handshake, a frame captured from an earlier connection epoch fails
//! its tag on the next one — reconnects can never replay traffic from an
//! earlier session, and in-session duplication or reordering trips the
//! `seq` check.
//!
//! What this does and does not prove is documented in DESIGN.md §10:
//! it is integrity + identity binding under a shared secret (the §V
//! prototype's mTLS stands in for a PKI we do not model); there is no
//! confidentiality and no per-connection forward secrecy.
//!
//! Both channel types here are pure state machines: bytes in
//! ([`ServerChannel::on_bytes`]) and bytes out ([`ServerChannel::outgoing`])
//! with no sockets, which is what makes partial-read, tampering and
//! replay behavior deterministically unit-testable.

use ddemos_crypto::hmac::{hmac_sha256, hmac_sha256_parts, HmacKey};
use ddemos_protocol::codec::{decode_envelope_frame, encode_envelope_frame};
use ddemos_protocol::messages::Envelope;
use ddemos_protocol::{NodeId, NodeKind};

/// Protocol version byte in the hello messages.
pub const PROTO_VERSION: u8 = 1;

const KIND_SERVER_HELLO: u8 = 1;
const KIND_CLIENT_HELLO: u8 = 2;
const KIND_SERVER_ACCEPT: u8 = 3;
const KIND_DATA: u8 = 4;
const KIND_REJECT: u8 = 5;

/// seq(8) + tag(16) ahead of the payload in a DATA body.
const DATA_OVERHEAD: usize = 8 + 16;

/// Typed reject codes a server (or client) sends before closing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// Admission control: the connection limit is reached.
    ServerFull,
    /// The handshake MAC did not verify.
    AuthFailed,
    /// A frame exceeded the negotiated maximum.
    FrameTooLarge,
    /// The peer's write queue overflowed (slow consumer shed).
    SlowConsumer,
    /// A malformed or out-of-state message.
    Malformed,
    /// A DATA frame failed its sequence or tag check (replayed, stale
    /// epoch, or tampered).
    Replay,
    /// The node is shutting down.
    ShuttingDown,
}

impl RejectCode {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            RejectCode::ServerFull => 1,
            RejectCode::AuthFailed => 2,
            RejectCode::FrameTooLarge => 3,
            RejectCode::SlowConsumer => 4,
            RejectCode::Malformed => 5,
            RejectCode::Replay => 6,
            RejectCode::ShuttingDown => 7,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Option<RejectCode> {
        Some(match b {
            1 => RejectCode::ServerFull,
            2 => RejectCode::AuthFailed,
            3 => RejectCode::FrameTooLarge,
            4 => RejectCode::SlowConsumer,
            5 => RejectCode::Malformed,
            6 => RejectCode::Replay,
            7 => RejectCode::ShuttingDown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectCode::ServerFull => "server-full",
            RejectCode::AuthFailed => "auth-failed",
            RejectCode::FrameTooLarge => "frame-too-large",
            RejectCode::SlowConsumer => "slow-consumer",
            RejectCode::Malformed => "malformed",
            RejectCode::Replay => "replay",
            RejectCode::ShuttingDown => "shutting-down",
        };
        f.write_str(s)
    }
}

/// A locally detected protocol fault. The channel queues the matching
/// [`RejectCode`] for the peer and closes itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanFault {
    /// Unknown protocol version.
    Version,
    /// Handshake authentication failed.
    AuthFailed,
    /// DATA tag mismatch: tampered, or framed under a stale session key
    /// (a pre-reconnect epoch).
    BadTag,
    /// DATA sequence mismatch: duplicated, dropped or reordered frame.
    Replay,
    /// Message longer than the configured maximum.
    Oversize,
    /// Structurally invalid message, unknown kind, or a message that is
    /// illegal in the current state.
    Malformed,
    /// The envelope payload failed CRC/decoding.
    BadEnvelope,
}

impl ChanFault {
    /// The reject code sent to the peer for this fault.
    pub fn reject_code(self) -> RejectCode {
        match self {
            ChanFault::Version | ChanFault::Malformed => RejectCode::Malformed,
            ChanFault::AuthFailed => RejectCode::AuthFailed,
            ChanFault::BadTag | ChanFault::Replay => RejectCode::Replay,
            ChanFault::Oversize => RejectCode::FrameTooLarge,
            ChanFault::BadEnvelope => RejectCode::Malformed,
        }
    }
}

/// What a channel surfaced while consuming bytes.
///
/// `Frame` dominates the size; events are consumed immediately, so the
/// imbalance costs nothing while boxing would cost a per-frame
/// allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ChanEvent {
    /// The handshake completed: the connection is now bound to `peer`
    /// under fresh `session` keys.
    Up {
        /// The authenticated identity on the other end.
        peer: NodeId,
        /// The session (epoch) id both ends derived.
        session: u64,
    },
    /// An authenticated envelope; `from` is channel-derived.
    Frame(Envelope),
    /// The peer sent a typed reject and will close.
    PeerReject(RejectCode),
    /// A local protocol fault: a reject has been queued and the channel
    /// is closed (flush [`ServerChannel::outgoing`], then drop the
    /// connection).
    Fault(ChanFault),
}

/// Errors from [`ServerChannel::send_envelope`] / [`ClientChannel::send_envelope`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The channel is closed (faulted or rejected).
    Closed,
}

/// Shared-channel configuration.
#[derive(Clone)]
pub struct AuthConfig {
    /// The 32-byte cluster secret every legitimate identity holds.
    pub secret: [u8; 32],
    /// Maximum DATA payload size; larger frames fault the channel.
    pub max_frame: u32,
}

impl AuthConfig {
    /// A config with the transport's customary 16 MiB frame cap.
    pub fn new(secret: [u8; 32]) -> AuthConfig {
        AuthConfig {
            secret,
            max_frame: 16 << 20,
        }
    }
}

/// Derives a cluster secret from an election seed — the deterministic
/// stand-in for out-of-band key distribution, exactly like the EA's
/// seeded setup: every process of a deployment derives the same secret
/// from the shared `(params, seed)` it already holds. A real deployment
/// would provision an independent random secret instead.
pub fn seeded_secret(seed: u64) -> [u8; 32] {
    let mut base = [0u8; 32];
    base[..8].copy_from_slice(&seed.to_be_bytes());
    hmac_sha256(&base, b"ddemos.chan.cluster-secret")
}

fn kind_byte(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Ea => 0,
        NodeKind::Vc => 1,
        NodeKind::Bb => 2,
        NodeKind::Trustee => 3,
        NodeKind::Client => 4,
    }
}

/// Derives one identity's channel key from the cluster secret.
pub fn identity_key(secret: &[u8; 32], id: NodeId) -> [u8; 32] {
    hmac_sha256_parts(
        secret,
        &[
            b"ddemos.chan.key",
            &[kind_byte(id.kind)],
            &id.index.to_be_bytes(),
        ],
    )
}

fn hello_mac(
    key: &[u8; 32],
    server_nonce: &[u8; 16],
    client_nonce: &[u8; 16],
    id: NodeId,
) -> [u8; 32] {
    hmac_sha256_parts(
        key,
        &[
            b"ddemos.chan.hello",
            server_nonce,
            client_nonce,
            &[kind_byte(id.kind)],
            &id.index.to_be_bytes(),
        ],
    )
}

/// `K_s`, held with its HMAC pads hashed: every later MAC of the session
/// — its id, the accept proof, each DATA tag — starts from them.
fn session_key(key: &[u8; 32], server_nonce: &[u8; 16], client_nonce: &[u8; 16]) -> HmacKey {
    HmacKey::new(&hmac_sha256_parts(
        key,
        &[b"ddemos.chan.sess", server_nonce, client_nonce],
    ))
}

fn session_id(sess: &HmacKey) -> u64 {
    let mac = sess.mac(&[b"ddemos.chan.sid"]);
    u64::from_be_bytes(mac[..8].try_into().expect("8 bytes"))
}

fn accept_mac(sess: &HmacKey, server_nonce: &[u8; 16], client_nonce: &[u8; 16]) -> [u8; 32] {
    sess.mac(&[b"ddemos.chan.accept", server_nonce, client_nonce])
}

fn data_tag(sess: &HmacKey, dir: u8, seq: u64, payload: &[u8]) -> [u8; 16] {
    let mac = sess.mac(&[&[dir], &seq.to_be_bytes(), payload]);
    mac[..16].try_into().expect("16 bytes")
}

/// Direction labels keep a reflected frame (our own bytes echoed back)
/// from verifying.
const DIR_C2S: u8 = 0;
const DIR_S2C: u8 = 1;

/// The sending half of an established session: frames payloads under
/// the session key, its HMAC pads hashed once for the session, with a
/// strictly increasing sequence number.
#[derive(Clone)]
pub struct SessionSend {
    key: HmacKey,
    dir: u8,
    seq: u64,
}

impl SessionSend {
    /// Appends one DATA message carrying `payload` to `out`.
    pub fn frame(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        let tag = data_tag(&self.key, self.dir, self.seq, payload);
        let len = 1 + DATA_OVERHEAD + payload.len();
        out.reserve(4 + len);
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.push(KIND_DATA);
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&tag);
        out.extend_from_slice(payload);
        self.seq += 1;
    }
}

/// The receiving half of an established session.
pub struct SessionRecv {
    key: HmacKey,
    dir: u8,
    seq: u64,
}

impl SessionRecv {
    /// Verifies one DATA body (`seq || tag || payload`) and returns the
    /// payload.
    ///
    /// # Errors
    /// `Replay` on a sequence mismatch, `BadTag` on a MAC mismatch,
    /// `Malformed` on a short body.
    pub fn open<'a>(&mut self, body: &'a [u8]) -> Result<&'a [u8], ChanFault> {
        if body.len() < DATA_OVERHEAD {
            return Err(ChanFault::Malformed);
        }
        let seq = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
        let tag: [u8; 16] = body[8..24].try_into().expect("16 bytes");
        let payload = &body[24..];
        if seq != self.seq {
            return Err(ChanFault::Replay);
        }
        if data_tag(&self.key, self.dir, seq, payload) != tag {
            return Err(ChanFault::BadTag);
        }
        self.seq += 1;
        Ok(payload)
    }
}

/// Incremental length-prefixed message parser with compaction.
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    fn new() -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn push(&mut self, data: &[u8]) {
        // Compact before growing so a long-lived connection's buffer
        // stays proportional to one in-flight message.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Returns the next complete `kind || body` message, or `None`.
    /// `Err` is an oversize length prefix.
    fn next_msg(
        &mut self,
        max_len: usize,
    ) -> Result<Option<(u8, std::ops::Range<usize>)>, ChanFault> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len < 1 {
            return Err(ChanFault::Malformed);
        }
        if len > max_len {
            return Err(ChanFault::Oversize);
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let kind = avail[4];
        let start = self.pos + 5;
        let end = self.pos + 4 + len;
        self.pos = end;
        Ok(Some((kind, start..end)))
    }
}

/// Outgoing byte queue with a flush cursor.
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn new() -> OutBuf {
        OutBuf {
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn outgoing(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.buf.len());
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

fn push_msg(out: &mut OutBuf, kind: u8, body: &[u8]) {
    let len = 1 + body.len();
    out.buf.reserve(4 + len);
    out.buf.extend_from_slice(&(len as u32).to_be_bytes());
    out.buf.push(kind);
    out.buf.extend_from_slice(body);
}

enum ServerState {
    AwaitHello,
    Established,
    Closed,
}

/// The server (accepting) side of one authenticated connection.
pub struct ServerChannel {
    cfg: AuthConfig,
    state: ServerState,
    server_nonce: [u8; 16],
    inbuf: FrameBuf,
    out: OutBuf,
    send: Option<SessionSend>,
    recv: Option<SessionRecv>,
    peer: Option<NodeId>,
    session: u64,
    queued: Vec<Envelope>,
    from_overridden: u64,
}

impl ServerChannel {
    /// Creates the channel and queues the SERVER_HELLO. The caller
    /// supplies the nonce (the event loop derives it from a seeded PRF
    /// and a counter, which keeps multi-process runs deterministic per
    /// process while still unique per connection).
    pub fn new(cfg: AuthConfig, server_nonce: [u8; 16]) -> ServerChannel {
        let mut chan = ServerChannel {
            cfg,
            state: ServerState::AwaitHello,
            server_nonce,
            inbuf: FrameBuf::new(),
            out: OutBuf::new(),
            send: None,
            recv: None,
            peer: None,
            session: 0,
            queued: Vec::new(),
            from_overridden: 0,
        };
        let mut body = [0u8; 17];
        body[0] = PROTO_VERSION;
        body[1..].copy_from_slice(&chan.server_nonce);
        push_msg(&mut chan.out, KIND_SERVER_HELLO, &body);
        chan
    }

    fn fault(&mut self, fault: ChanFault, events: &mut Vec<ChanEvent>) {
        self.reject(fault.reject_code());
        events.push(ChanEvent::Fault(fault));
    }

    fn handle_hello(&mut self, body: &[u8], events: &mut Vec<ChanEvent>) {
        if body.len() != 1 + 1 + 4 + 16 + 32 {
            return self.fault(ChanFault::Malformed, events);
        }
        if body[0] != PROTO_VERSION {
            return self.fault(ChanFault::Version, events);
        }
        let kind = match body[1] {
            0 => NodeKind::Ea,
            1 => NodeKind::Vc,
            2 => NodeKind::Bb,
            3 => NodeKind::Trustee,
            4 => NodeKind::Client,
            _ => return self.fault(ChanFault::Malformed, events),
        };
        let index = u32::from_be_bytes(body[2..6].try_into().expect("4 bytes"));
        let id = NodeId { kind, index };
        let client_nonce: [u8; 16] = body[6..22].try_into().expect("16 bytes");
        let mac: [u8; 32] = body[22..54].try_into().expect("32 bytes");
        let key = identity_key(&self.cfg.secret, id);
        if hello_mac(&key, &self.server_nonce, &client_nonce, id) != mac {
            return self.fault(ChanFault::AuthFailed, events);
        }
        let sess = session_key(&key, &self.server_nonce, &client_nonce);
        self.session = session_id(&sess);
        let mut body = [0u8; 8 + 32];
        body[..8].copy_from_slice(&self.session.to_be_bytes());
        body[8..].copy_from_slice(&accept_mac(&sess, &self.server_nonce, &client_nonce));
        push_msg(&mut self.out, KIND_SERVER_ACCEPT, &body);
        self.send = Some(SessionSend {
            key: sess,
            dir: DIR_S2C,
            seq: 0,
        });
        self.recv = Some(SessionRecv {
            key: sess,
            dir: DIR_C2S,
            seq: 0,
        });
        self.peer = Some(id);
        self.state = ServerState::Established;
        events.push(ChanEvent::Up {
            peer: id,
            session: self.session,
        });
        let queued = std::mem::take(&mut self.queued);
        for env in queued {
            let _ = self.send_envelope(&env);
        }
    }

    fn handle_data(&mut self, start: usize, end: usize, events: &mut Vec<ChanEvent>) {
        let body = &self.inbuf.buf[start..end];
        let recv = self.recv.as_mut().expect("established");
        let payload = match recv.open(body) {
            Ok(p) => p,
            Err(f) => return self.fault(f, events),
        };
        let mut env = match decode_envelope_frame(payload) {
            Ok(env) => env,
            Err(_) => return self.fault(ChanFault::BadEnvelope, events),
        };
        let peer = self.peer.expect("established");
        if env.from != peer {
            self.from_overridden += 1;
            env.from = peer;
        }
        events.push(ChanEvent::Frame(env));
    }

    /// Consumes inbound bytes, appending surfaced events.
    pub fn on_bytes(&mut self, data: &[u8], events: &mut Vec<ChanEvent>) {
        if matches!(self.state, ServerState::Closed) {
            return;
        }
        self.inbuf.push(data);
        loop {
            if matches!(self.state, ServerState::Closed) {
                return;
            }
            let max_len = 1 + DATA_OVERHEAD + self.cfg.max_frame as usize;
            let (kind, range) = match self.inbuf.next_msg(max_len) {
                Ok(Some(m)) => m,
                Ok(None) => return,
                Err(f) => return self.fault(f, events),
            };
            match (kind, &self.state) {
                (KIND_CLIENT_HELLO, ServerState::AwaitHello) => {
                    let body = self.inbuf.buf[range].to_vec();
                    self.handle_hello(&body, events);
                }
                (KIND_DATA, ServerState::Established) => {
                    self.handle_data(range.start, range.end, events);
                }
                (KIND_REJECT, _) => {
                    let body = &self.inbuf.buf[range];
                    let code = body
                        .first()
                        .and_then(|b| RejectCode::from_byte(*b))
                        .unwrap_or(RejectCode::Malformed);
                    self.state = ServerState::Closed;
                    events.push(ChanEvent::PeerReject(code));
                }
                _ => self.fault(ChanFault::Malformed, events),
            }
        }
    }

    /// Frames one envelope for the peer. Before the handshake completes
    /// the envelope is queued and flushed on establishment.
    ///
    /// # Errors
    /// [`SendError::Closed`] once the channel faulted or was rejected.
    pub fn send_envelope(&mut self, env: &Envelope) -> Result<(), SendError> {
        match self.state {
            ServerState::Closed => Err(SendError::Closed),
            ServerState::AwaitHello => {
                self.queued.push(env.clone());
                Ok(())
            }
            ServerState::Established => {
                let payload = encode_envelope_frame(env);
                let send = self.send.as_mut().expect("established");
                send.frame(&payload, &mut self.out.buf);
                Ok(())
            }
        }
    }

    /// Queues a typed reject and closes the channel.
    pub fn reject(&mut self, code: RejectCode) {
        if !matches!(self.state, ServerState::Closed) {
            push_msg(&mut self.out, KIND_REJECT, &[code.to_byte()]);
            self.state = ServerState::Closed;
        }
    }

    /// Bytes waiting to be written to the socket.
    pub fn outgoing(&self) -> &[u8] {
        self.out.outgoing()
    }

    /// Marks `n` outgoing bytes as written.
    pub fn advance_out(&mut self, n: usize) {
        self.out.advance(n);
    }

    /// Outgoing bytes queued (write-queue depth for backpressure).
    pub fn out_pending(&self) -> usize {
        self.out.pending()
    }

    /// The authenticated peer, once the handshake completed.
    pub fn peer(&self) -> Option<NodeId> {
        self.peer
    }

    /// Whether the channel is closed (faulted/rejected).
    pub fn is_closed(&self) -> bool {
        matches!(self.state, ServerState::Closed)
    }

    /// How many frames claimed a `from` differing from the channel
    /// identity (overridden, counted).
    pub fn from_overridden(&self) -> u64 {
        self.from_overridden
    }
}

enum ClientState {
    AwaitServerHello,
    AwaitAccept {
        sess: HmacKey,
        server_nonce: [u8; 16],
    },
    Established,
    Closed,
}

/// The client (dialing) side of one authenticated connection.
///
/// The client proves possession of its identity key; the SERVER_ACCEPT
/// MAC proves the server holds the cluster secret too (mutual
/// authentication against outsiders). Which *specific* node answered is
/// taken from the dialed address mapping — `expect_peer` — and stamped
/// on inbound frames.
pub struct ClientChannel {
    cfg: AuthConfig,
    state: ClientState,
    identity: NodeId,
    expect_peer: NodeId,
    key: [u8; 32],
    client_nonce: [u8; 16],
    inbuf: FrameBuf,
    out: OutBuf,
    send: Option<SessionSend>,
    recv: Option<SessionRecv>,
    queued: Vec<Envelope>,
    from_overridden: u64,
}

impl ClientChannel {
    /// Creates a dialing channel authenticating as `identity` toward
    /// the node at the dialed address, `expect_peer`.
    pub fn new(
        cfg: AuthConfig,
        identity: NodeId,
        expect_peer: NodeId,
        client_nonce: [u8; 16],
    ) -> ClientChannel {
        let key = identity_key(&cfg.secret, identity);
        ClientChannel {
            cfg,
            state: ClientState::AwaitServerHello,
            identity,
            expect_peer,
            key,
            client_nonce,
            inbuf: FrameBuf::new(),
            out: OutBuf::new(),
            send: None,
            recv: None,
            queued: Vec::new(),
            from_overridden: 0,
        }
    }

    fn fault(&mut self, fault: ChanFault, events: &mut Vec<ChanEvent>) {
        if !matches!(self.state, ClientState::Closed) {
            push_msg(&mut self.out, KIND_REJECT, &[fault.reject_code().to_byte()]);
            self.state = ClientState::Closed;
        }
        events.push(ChanEvent::Fault(fault));
    }

    fn handle_server_hello(&mut self, body: &[u8], events: &mut Vec<ChanEvent>) {
        if body.len() != 17 {
            return self.fault(ChanFault::Malformed, events);
        }
        if body[0] != PROTO_VERSION {
            return self.fault(ChanFault::Version, events);
        }
        let server_nonce: [u8; 16] = body[1..17].try_into().expect("16 bytes");
        let mac = hello_mac(&self.key, &server_nonce, &self.client_nonce, self.identity);
        let mut hello = Vec::with_capacity(1 + 1 + 4 + 16 + 32);
        hello.push(PROTO_VERSION);
        hello.push(kind_byte(self.identity.kind));
        hello.extend_from_slice(&self.identity.index.to_be_bytes());
        hello.extend_from_slice(&self.client_nonce);
        hello.extend_from_slice(&mac);
        push_msg(&mut self.out, KIND_CLIENT_HELLO, &hello);
        let sess = session_key(&self.key, &server_nonce, &self.client_nonce);
        self.state = ClientState::AwaitAccept { sess, server_nonce };
    }

    fn handle_accept(&mut self, body: &[u8], events: &mut Vec<ChanEvent>) {
        let ClientState::AwaitAccept { sess, server_nonce } = &self.state else {
            return self.fault(ChanFault::Malformed, events);
        };
        let (sess, server_nonce) = (*sess, *server_nonce);
        if body.len() != 8 + 32 {
            return self.fault(ChanFault::Malformed, events);
        }
        let sid = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
        let mac: [u8; 32] = body[8..40].try_into().expect("32 bytes");
        if sid != session_id(&sess) || mac != accept_mac(&sess, &server_nonce, &self.client_nonce) {
            return self.fault(ChanFault::AuthFailed, events);
        }
        self.send = Some(SessionSend {
            key: sess,
            dir: DIR_C2S,
            seq: 0,
        });
        self.recv = Some(SessionRecv {
            key: sess,
            dir: DIR_S2C,
            seq: 0,
        });
        self.state = ClientState::Established;
        events.push(ChanEvent::Up {
            peer: self.expect_peer,
            session: sid,
        });
        let queued = std::mem::take(&mut self.queued);
        for env in queued {
            let _ = self.send_envelope(&env);
        }
    }

    fn handle_data(&mut self, start: usize, end: usize, events: &mut Vec<ChanEvent>) {
        let body = &self.inbuf.buf[start..end];
        let recv = self.recv.as_mut().expect("established");
        let payload = match recv.open(body) {
            Ok(p) => p,
            Err(f) => return self.fault(f, events),
        };
        let mut env = match decode_envelope_frame(payload) {
            Ok(env) => env,
            Err(_) => return self.fault(ChanFault::BadEnvelope, events),
        };
        if env.from != self.expect_peer {
            self.from_overridden += 1;
            env.from = self.expect_peer;
        }
        events.push(ChanEvent::Frame(env));
    }

    /// Consumes inbound bytes, appending surfaced events.
    pub fn on_bytes(&mut self, data: &[u8], events: &mut Vec<ChanEvent>) {
        if matches!(self.state, ClientState::Closed) {
            return;
        }
        self.inbuf.push(data);
        loop {
            if matches!(self.state, ClientState::Closed) {
                return;
            }
            let max_len = 1 + DATA_OVERHEAD + self.cfg.max_frame as usize;
            let (kind, range) = match self.inbuf.next_msg(max_len) {
                Ok(Some(m)) => m,
                Ok(None) => return,
                Err(f) => return self.fault(f, events),
            };
            match (kind, &self.state) {
                (KIND_SERVER_HELLO, ClientState::AwaitServerHello) => {
                    let body = self.inbuf.buf[range].to_vec();
                    self.handle_server_hello(&body, events);
                }
                (KIND_SERVER_ACCEPT, ClientState::AwaitAccept { .. }) => {
                    let body = self.inbuf.buf[range].to_vec();
                    self.handle_accept(&body, events);
                }
                (KIND_DATA, ClientState::Established) => {
                    self.handle_data(range.start, range.end, events);
                }
                (KIND_REJECT, _) => {
                    let body = &self.inbuf.buf[range];
                    let code = body
                        .first()
                        .and_then(|b| RejectCode::from_byte(*b))
                        .unwrap_or(RejectCode::Malformed);
                    self.state = ClientState::Closed;
                    events.push(ChanEvent::PeerReject(code));
                }
                _ => self.fault(ChanFault::Malformed, events),
            }
        }
    }

    /// Frames one envelope for the peer; queued until the handshake
    /// completes.
    ///
    /// # Errors
    /// [`SendError::Closed`] once the channel faulted or was rejected.
    pub fn send_envelope(&mut self, env: &Envelope) -> Result<(), SendError> {
        match self.state {
            ClientState::Closed => Err(SendError::Closed),
            ClientState::AwaitServerHello | ClientState::AwaitAccept { .. } => {
                self.queued.push(env.clone());
                Ok(())
            }
            ClientState::Established => {
                let payload = encode_envelope_frame(env);
                let send = self.send.as_mut().expect("established");
                send.frame(&payload, &mut self.out.buf);
                Ok(())
            }
        }
    }

    /// Queues a typed reject and closes the channel.
    pub fn reject(&mut self, code: RejectCode) {
        if !matches!(self.state, ClientState::Closed) {
            push_msg(&mut self.out, KIND_REJECT, &[code.to_byte()]);
            self.state = ClientState::Closed;
        }
    }

    /// Splits an established channel into its session halves, for a
    /// caller that frames and opens DATA bodies itself.
    ///
    /// # Panics
    /// If the handshake has not completed.
    pub fn into_session(self) -> (SessionSend, SessionRecv) {
        assert!(
            matches!(self.state, ClientState::Established),
            "into_session before establishment"
        );
        (
            self.send.expect("established"),
            self.recv.expect("established"),
        )
    }

    /// Bytes waiting to be written to the socket.
    pub fn outgoing(&self) -> &[u8] {
        self.out.outgoing()
    }

    /// Marks `n` outgoing bytes as written.
    pub fn advance_out(&mut self, n: usize) {
        self.out.advance(n);
    }

    /// Outgoing bytes queued (write-queue depth for backpressure).
    pub fn out_pending(&self) -> usize {
        self.out.pending()
    }

    /// Whether the handshake completed.
    pub fn is_established(&self) -> bool {
        matches!(self.state, ClientState::Established)
    }

    /// Whether the channel is closed (faulted/rejected).
    pub fn is_closed(&self) -> bool {
        matches!(self.state, ClientState::Closed)
    }

    /// How many inbound frames claimed a `from` differing from the
    /// dialed identity.
    pub fn from_overridden(&self) -> u64 {
        self.from_overridden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_protocol::messages::Msg;

    fn cfg() -> AuthConfig {
        AuthConfig::new([7u8; 32])
    }

    fn env(from: NodeId, to: NodeId) -> Envelope {
        Envelope {
            from,
            to,
            msg: Msg::ClosePolls,
        }
    }

    /// Pipes outgoing bytes between the two channels until quiescent,
    /// optionally in `chunk`-byte slices to exercise partial reads.
    fn pump(
        server: &mut ServerChannel,
        client: &mut ClientChannel,
        chunk: usize,
        server_events: &mut Vec<ChanEvent>,
        client_events: &mut Vec<ChanEvent>,
    ) {
        loop {
            let s_out = server.outgoing().to_vec();
            server.advance_out(s_out.len());
            let c_out = client.outgoing().to_vec();
            client.advance_out(c_out.len());
            if s_out.is_empty() && c_out.is_empty() {
                return;
            }
            for piece in s_out.chunks(chunk.max(1)) {
                client.on_bytes(piece, client_events);
            }
            for piece in c_out.chunks(chunk.max(1)) {
                server.on_bytes(piece, server_events);
            }
        }
    }

    fn established_pair() -> (ServerChannel, ClientChannel) {
        let mut server = ServerChannel::new(cfg(), [1u8; 16]);
        let mut client = ClientChannel::new(cfg(), NodeId::client(9), NodeId::vc(0), [2u8; 16]);
        let (mut se, mut ce) = (Vec::new(), Vec::new());
        pump(&mut server, &mut client, usize::MAX, &mut se, &mut ce);
        assert!(matches!(se[0], ChanEvent::Up { peer, .. } if peer == NodeId::client(9)));
        assert!(matches!(ce[0], ChanEvent::Up { peer, .. } if peer == NodeId::vc(0)));
        (server, client)
    }

    #[test]
    fn handshake_and_frames_both_directions() {
        let (mut server, mut client) = established_pair();
        client
            .send_envelope(&env(NodeId::client(9), NodeId::vc(0)))
            .expect("send");
        server
            .send_envelope(&env(NodeId::vc(0), NodeId::client(9)))
            .expect("send");
        let (mut se, mut ce) = (Vec::new(), Vec::new());
        pump(&mut server, &mut client, usize::MAX, &mut se, &mut ce);
        assert!(matches!(&se[..], [ChanEvent::Frame(e)] if e.from == NodeId::client(9)));
        assert!(matches!(&ce[..], [ChanEvent::Frame(e)] if e.from == NodeId::vc(0)));
    }

    #[test]
    fn single_byte_reads_cross_frame_boundaries() {
        let mut server = ServerChannel::new(cfg(), [1u8; 16]);
        let mut client = ClientChannel::new(cfg(), NodeId::client(3), NodeId::vc(1), [2u8; 16]);
        // Queue two envelopes before establishment: they flush in order
        // and arrive across byte-at-a-time reads.
        client
            .send_envelope(&env(NodeId::client(3), NodeId::vc(1)))
            .expect("send");
        client
            .send_envelope(&env(NodeId::client(3), NodeId::vc(1)))
            .expect("send");
        let (mut se, mut ce) = (Vec::new(), Vec::new());
        pump(&mut server, &mut client, 1, &mut se, &mut ce);
        let frames = se
            .iter()
            .filter(|e| matches!(e, ChanEvent::Frame(_)))
            .count();
        assert_eq!(frames, 2, "both queued envelopes delivered exactly once");
        assert!(client.is_established());
    }

    #[test]
    fn envelope_from_is_channel_derived() {
        let (mut server, mut client) = established_pair();
        // The client *claims* to be the coordinator; the channel
        // identity (client 9) wins.
        client
            .send_envelope(&env(NodeId::client(0), NodeId::vc(0)))
            .expect("send");
        let (mut se, mut ce) = (Vec::new(), Vec::new());
        pump(&mut server, &mut client, usize::MAX, &mut se, &mut ce);
        let ChanEvent::Frame(e) = &se[0] else {
            panic!("expected frame");
        };
        assert_eq!(e.from, NodeId::client(9));
        assert_eq!(server.from_overridden(), 1);
    }

    #[test]
    fn tampered_hello_mac_is_rejected_with_typed_code() {
        let mut server = ServerChannel::new(cfg(), [1u8; 16]);
        // A client that holds the wrong cluster secret.
        let mut client = ClientChannel::new(
            AuthConfig::new([8u8; 32]),
            NodeId::client(1),
            NodeId::vc(0),
            [2u8; 16],
        );
        let (mut se, mut ce) = (Vec::new(), Vec::new());
        pump(&mut server, &mut client, usize::MAX, &mut se, &mut ce);
        assert!(se
            .iter()
            .any(|e| matches!(e, ChanEvent::Fault(ChanFault::AuthFailed))));
        assert!(ce
            .iter()
            .any(|e| matches!(e, ChanEvent::PeerReject(RejectCode::AuthFailed))));
        assert!(server.is_closed());
    }

    #[test]
    fn tampered_data_tag_faults() {
        let (mut server, mut client) = established_pair();
        client
            .send_envelope(&env(NodeId::client(9), NodeId::vc(0)))
            .expect("send");
        let mut bytes = client.outgoing().to_vec();
        client.advance_out(bytes.len());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut se = Vec::new();
        server.on_bytes(&bytes, &mut se);
        assert!(matches!(&se[..], [ChanEvent::Fault(ChanFault::BadTag)]));
        assert!(server.is_closed());
    }

    #[test]
    fn duplicated_frame_is_a_replay_not_a_double_delivery() {
        let (mut server, mut client) = established_pair();
        client
            .send_envelope(&env(NodeId::client(9), NodeId::vc(0)))
            .expect("send");
        let bytes = client.outgoing().to_vec();
        client.advance_out(bytes.len());
        let mut se = Vec::new();
        server.on_bytes(&bytes, &mut se);
        server.on_bytes(&bytes, &mut se);
        let frames = se
            .iter()
            .filter(|e| matches!(e, ChanEvent::Frame(_)))
            .count();
        assert_eq!(frames, 1, "the duplicate must not deliver twice");
        assert!(se
            .iter()
            .any(|e| matches!(e, ChanEvent::Fault(ChanFault::Replay))));
    }

    #[test]
    fn stale_epoch_frame_is_rejected_after_reconnect() {
        // Session 1: capture an authenticated frame.
        let (mut server, mut client) = established_pair();
        client
            .send_envelope(&env(NodeId::client(9), NodeId::vc(0)))
            .expect("send");
        let stale = client.outgoing().to_vec();
        client.advance_out(stale.len());
        let mut se = Vec::new();
        server.on_bytes(&stale, &mut se);
        assert!(matches!(&se[..], [ChanEvent::Frame(_)]));

        // Session 2: fresh server nonce, fresh handshake — the
        // reconnect path. Replaying the captured frame (what a writer
        // re-sending its in-flight frame after a reconnect would do)
        // must fail the session tag, not deliver again.
        let mut server2 = ServerChannel::new(cfg(), [9u8; 16]);
        let mut client2 = ClientChannel::new(cfg(), NodeId::client(9), NodeId::vc(0), [10u8; 16]);
        let (mut se2, mut ce2) = (Vec::new(), Vec::new());
        pump(&mut server2, &mut client2, usize::MAX, &mut se2, &mut ce2);
        se2.clear();
        server2.on_bytes(&stale, &mut se2);
        assert!(
            matches!(&se2[..], [ChanEvent::Fault(ChanFault::BadTag)]),
            "stale-epoch frame must fault, got {se2:?}"
        );
        assert!(server2.is_closed());
        // And the sessions are distinguishable by id.
        assert_ne!(server.session, server2.session);
    }

    #[test]
    fn oversize_message_faults_with_frame_too_large() {
        let mut server = ServerChannel::new(
            AuthConfig {
                secret: [7u8; 32],
                max_frame: 64,
            },
            [1u8; 16],
        );
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1_000_000u32).to_be_bytes());
        bytes.push(KIND_DATA);
        let mut se = Vec::new();
        server.on_bytes(&bytes, &mut se);
        assert!(matches!(&se[..], [ChanEvent::Fault(ChanFault::Oversize)]));
        // The queued reject is typed.
        let out = server.outgoing().to_vec();
        let code = out.last().copied().and_then(RejectCode::from_byte);
        assert_eq!(code, Some(RejectCode::FrameTooLarge));
    }

    #[test]
    fn data_before_hello_is_malformed() {
        let mut server = ServerChannel::new(cfg(), [1u8; 16]);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(26u32).to_be_bytes());
        bytes.push(KIND_DATA);
        bytes.extend_from_slice(&[0u8; 25]);
        let mut se = Vec::new();
        server.on_bytes(&bytes, &mut se);
        assert!(matches!(&se[..], [ChanEvent::Fault(ChanFault::Malformed)]));
    }
}
