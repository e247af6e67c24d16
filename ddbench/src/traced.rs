//! The traced run: the benchmark as its own single-threaded driver over
//! the sans-I/O API, with a span around each call into a layer's public
//! functions.
//!
//! The driver replays the workload of `e2e.rs` (same seed, same
//! choices, fewer ballots) without threads, sockets or clocks: it owns
//! the four `VcCore`s and hands `Envelope`s between them from FIFO
//! inboxes, so its counts repeat exactly for a seed and the self times
//! of its spans sum to its own wall time. It runs the election twice —
//! spans off, then spans on — and checks that tally and counts agree.

use crate::e2e;
use crate::env::{self, RunDir};
use crate::report::RunOutput;
use crate::span::{self, Ledger};
use crate::stats;
use crate::workload::{choice, expected_tally, Net, Workload, WARMUP_BALLOTS};
use crossbeam_channel::{RecvError, RecvTimeoutError};
use ddemos::auditor::Auditor;
use ddemos::crypto::schnorr::Signature;
use ddemos::crypto::vss::SignedShare;
use ddemos::voter::Voter;
use ddemos_bb::{codec as bb_codec, BbApi, BbNode, BbSnapshot, MajorityReader, WriteError};
use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
use ddemos_net::auth::{
    seeded_secret, AuthConfig, ChanEvent, ClientChannel, ServerChannel, SessionRecv, SessionSend,
};
use ddemos_net::TransportEndpoint;
use ddemos_obs::{split_key, MetricsSnapshot, Recorder};
use ddemos_protocol::ballot::AuditInfo;
use ddemos_protocol::codec::{decode_envelope_frame, encode_envelope_frame, put_trustee_post};
use ddemos_protocol::exec::Pool;
use ddemos_protocol::messages::{Envelope, Msg};
use ddemos_protocol::posts::{FinalizedVoteSet, TrusteePost, VoteSet};
use ddemos_protocol::wire::Writer;
use ddemos_protocol::{NodeId, NodeKind};
use ddemos_storage::{DynDisk, DynJournal, FileDisk, Journal, JournalConfig};
use ddemos_trustee::Trustee;
use ddemos_vc::{MemoryStore, VcBehavior, VcCore, VcInput, VcOutput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Node-clock milliseconds every step is stamped with: inside the voting
/// window, so the polls close only on the driver's `ClosePolls`.
const NOW_MS: u64 = 1;
/// Poll timer the cores are built with (`VcNodeConfig::default().poll`).
const POLL: Duration = Duration::from_millis(1);
/// Idle `Tick` rounds the close phase tries before giving up.
const MAX_TICK_ROUNDS: usize = 1000;

/// Which part of the election the driver is in; it names the step spans.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Fresh,
    Recast,
    Consensus,
}

impl Phase {
    fn step_span(self) -> &'static str {
        match self {
            Phase::Warmup => "vc.warmup_step",
            Phase::Fresh => "vc.step",
            Phase::Recast => "vc.recast_step",
            Phase::Consensus => "vc.consensus_step",
        }
    }
}

/// Nanoseconds the driver waited for journal commits (fsync): wall time
/// that is not processor time. Timed with spans on and off alike.
#[derive(Clone, Copy, Debug, Default)]
struct CommitWait {
    fresh_ns: u64,
    total_ns: u64,
}

/// Counts taken where the work happens. They do not depend on whether
/// spans are on, and repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq)]
struct Counts {
    /// Envelopes handed between nodes during fresh casts.
    msgs: u64,
    /// Core steps during fresh casts.
    steps: u64,
    /// Envelope frames encoded / their payload bytes (fresh casts).
    frames: u64,
    frame_bytes: u64,
    /// Bytes on the (modelled) wire during fresh casts, handshakes
    /// included.
    wire_bytes: u64,
    /// Voter connections opened during fresh casts.
    conns: u64,
    /// Journal records / payload bytes / fsync barriers (fresh casts).
    records: u64,
    record_bytes: u64,
    commits: u64,
    /// Envelopes of the close phase.
    consensus_msgs: u64,
}

/// Nanoseconds the fused channel calls of the fresh casts were split
/// into (see `Links::deliver`); zero with spans off.
#[derive(Clone, Copy, Debug, Default)]
struct FusedSplit {
    open_ns: u64,
    decode_ns: u64,
    seal_ns: u64,
    encode_ns: u64,
}

impl FusedSplit {
    fn add(&mut self, other: FusedSplit) {
        self.open_ns += other.open_ns;
        self.decode_ns += other.decode_ns;
        self.seal_ns += other.seal_ns;
        self.encode_ns += other.encode_ns;
    }
}

/// One envelope carried over a link: what the receiver decoded, the
/// frame payload and wire sizes, and how the fused call was split.
struct Hop {
    decoded: Envelope,
    frame_bytes: u64,
    wire_bytes: u64,
    split: FusedSplit,
}

/// One directed, authenticated link into a collector: the sender holds
/// the client half of the session, the collector the `ServerChannel`.
struct Link {
    send: SessionSend,
    recv: SessionRecv,
    server: ServerChannel,
}

/// The authenticated channels of `tcp_fresh`: a persistent link per
/// ordered collector pair, and one fresh link per voter.
struct Links {
    auth: AuthConfig,
    nonce: u64,
    between: BTreeMap<(u32, u32), Link>,
    voter: Option<(NodeId, u32, Link)>,
}

impl Links {
    fn nonce(&mut self) -> [u8; 16] {
        self.nonce += 1;
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.nonce.to_be_bytes());
        out
    }

    /// One `ClientChannel`/`ServerChannel` handshake, bytes shuttled in
    /// memory. Returns the link and the bytes that crossed.
    fn handshake(&mut self, identity: NodeId, peer: NodeId) -> (Link, u64) {
        let _span = span::span("net.handshake", "");
        let mut server = ServerChannel::new(self.auth.clone(), self.nonce());
        let mut client = ClientChannel::new(self.auth.clone(), identity, peer, self.nonce());
        let mut events = Vec::new();
        let mut wire = 0u64;
        for _ in 0..8 {
            let bytes = server.outgoing().to_vec();
            server.advance_out(bytes.len());
            client.on_bytes(&bytes, &mut events);
            wire += bytes.len() as u64;
            let bytes = client.outgoing().to_vec();
            client.advance_out(bytes.len());
            server.on_bytes(&bytes, &mut events);
            wire += bytes.len() as u64;
            if client.is_established() && server.peer().is_some() {
                break;
            }
        }
        assert!(
            client.is_established() && server.peer() == Some(identity),
            "handshake {identity} -> {peer} did not complete: {events:?}"
        );
        let (send, recv) = client.into_session();
        (Link { send, recv, server }, wire)
    }

    /// Carries one envelope over its link.
    ///
    /// Into a collector the sender is the client half, so the calls are
    /// the public split ones — `encode_envelope_frame`, then
    /// `SessionSend::frame` — while the collector's `ServerChannel::
    /// on_bytes` fuses `SessionRecv::open` and `decode_envelope_frame`.
    /// The fused time is split with the same frame's seal time: seal and
    /// open are one HMAC-SHA256 over the same bytes. The reply to the
    /// voter runs the other way round (`send_envelope` fused,
    /// `SessionRecv::open` + `decode_envelope_frame` split).
    fn deliver(&mut self, env: &Envelope) -> Hop {
        let kind = env.msg.kind();
        let reply = env.to.kind == NodeKind::Client;
        let link = match (env.from.kind, env.to.kind) {
            (NodeKind::Vc, NodeKind::Vc) => self.between.get_mut(&(env.from.index, env.to.index)),
            _ => {
                let (client, vc) = if reply {
                    (env.to, env.from.index)
                } else {
                    (env.from, env.to.index)
                };
                self.voter
                    .as_mut()
                    .filter(|(c, v, _)| *c == client && *v == vc)
                    .map(|(_, _, link)| link)
            }
        }
        .unwrap_or_else(|| panic!("no link for {} -> {}", env.from, env.to));
        if reply {
            let fused = span::span("net.send_fused", kind);
            link.server.send_envelope(env).expect("voter channel open");
            let fused_ns = fused.close();
            let wire = link.server.outgoing().to_vec();
            link.server.advance_out(wire.len());
            // `len(4) || kind(1) || seq || tag || payload`.
            let open = span::span("net.open", kind);
            let payload = link.recv.open(&wire[5..]).expect("reply authenticates");
            let open_ns = open.close();
            let decoded = {
                let _span = span::span("protocol.decode", kind);
                decode_envelope_frame(payload).expect("reply decodes")
            };
            let seal_ns = fused_ns.min(open_ns);
            return Hop {
                decoded,
                frame_bytes: payload.len() as u64,
                wire_bytes: wire.len() as u64,
                split: FusedSplit {
                    seal_ns,
                    encode_ns: fused_ns - seal_ns,
                    ..FusedSplit::default()
                },
            };
        }
        let payload = {
            let _span = span::span("protocol.encode", kind);
            encode_envelope_frame(env)
        };
        let mut wire = Vec::new();
        let seal = span::span("net.seal", kind);
        link.send.frame(&payload, &mut wire);
        let seal_ns = seal.close();
        let mut events = Vec::new();
        let fused = span::span("net.recv_fused", kind);
        link.server.on_bytes(&wire, &mut events);
        let fused_ns = fused.close();
        let open_ns = fused_ns.min(seal_ns);
        match events.pop() {
            Some(ChanEvent::Frame(decoded)) if events.is_empty() => Hop {
                decoded,
                frame_bytes: payload.len() as u64,
                wire_bytes: wire.len() as u64,
                split: FusedSplit {
                    open_ns,
                    decode_ns: fused_ns - open_ns,
                    ..FusedSplit::default()
                },
            },
            other => panic!("link {} -> {} surfaced {other:?}", env.from, env.to),
        }
    }
}

/// The four collectors and everything between them.
struct Cluster {
    cores: Vec<VcCore<MemoryStore>>,
    journals: Vec<Option<DynJournal>>,
    inbox: Vec<VecDeque<Envelope>>,
    client_inbox: VecDeque<Envelope>,
    /// `tcp_fresh` only; `None` hands envelopes over in memory, like
    /// `SimNet`.
    links: Option<Links>,
    finalized: Vec<FinalizedVoteSet>,
    phase: Phase,
    counts: Counts,
    split: FusedSplit,
    commit_wait: CommitWait,
}

impl Cluster {
    /// Hands one envelope to its destination's inbox, across the
    /// authenticated link where the workload has one.
    fn route(&mut self, env: Envelope) {
        let env = match &mut self.links {
            None => env,
            Some(links) => {
                // The event-loop deployment has no route from a replica
                // to itself: a collector's multicast reaches its peers
                // only, and the core counts its own contribution locally.
                if env.from == env.to {
                    return;
                }
                let mut wire = 0;
                if env.from.kind == NodeKind::Client {
                    let stale = links
                        .voter
                        .as_ref()
                        .is_none_or(|(c, v, _)| *c != env.from || *v != env.to.index);
                    if stale {
                        let (link, bytes) = links.handshake(env.from, env.to);
                        links.voter = Some((env.from, env.to.index, link));
                        wire += bytes;
                        if self.phase == Phase::Fresh {
                            self.counts.conns += 1;
                        }
                    }
                }
                let hop = links.deliver(&env);
                if self.phase == Phase::Fresh {
                    self.counts.frames += 1;
                    self.counts.frame_bytes += hop.frame_bytes;
                    self.counts.wire_bytes += wire + hop.wire_bytes;
                    self.split.add(hop.split);
                }
                hop.decoded
            }
        };
        match self.phase {
            Phase::Fresh => self.counts.msgs += 1,
            Phase::Consensus => self.counts.consensus_msgs += 1,
            Phase::Warmup | Phase::Recast => {}
        }
        match env.to.kind {
            NodeKind::Vc => self.inbox[env.to.index as usize].push_back(env),
            _ => self.client_inbox.push_back(env),
        }
    }

    /// One core step and the execution of its outputs, as
    /// `ddemos_vc::node`'s driver does it.
    fn step(&mut self, node: usize, input: VcInput) {
        let label = match &input {
            VcInput::Deliver(env) => env.msg.kind(),
            VcInput::Tick => "Tick",
            VcInput::ClosePolls => "ClosePolls",
            VcInput::Shutdown => "Shutdown",
        };
        let outputs = {
            let _span = span::span(self.phase.step_span(), label);
            self.cores[node].step(input, NOW_MS)
        };
        if self.phase == Phase::Fresh {
            self.counts.steps += 1;
        }
        self.execute(node, outputs);
    }

    /// Executes one batch of outputs in order, with the adaptive-commit
    /// rule of the real driver: a commit barrier with nothing externally
    /// visible after it in the batch is deferred.
    fn execute(&mut self, node: usize, outputs: Vec<VcOutput>) {
        let adaptive = self.journals[node]
            .as_ref()
            .is_some_and(|journal| journal.adaptive_commit());
        let mut visible_after = vec![false; outputs.len()];
        let mut seen_visible = false;
        for (slot, output) in visible_after.iter_mut().zip(&outputs).rev() {
            *slot = seen_visible;
            if matches!(output, VcOutput::Send { .. } | VcOutput::Deliver(_)) {
                seen_visible = true;
            }
        }
        let mut committed = false;
        for (output, visible_later) in outputs.into_iter().zip(visible_after) {
            match output {
                VcOutput::Send { to, msg } => self.route(Envelope {
                    from: NodeId::vc(node as u32),
                    to,
                    msg,
                }),
                VcOutput::SetTimer(_) => {}
                VcOutput::Journal(bytes) => {
                    if let Some(journal) = self.journals[node].as_mut() {
                        let _span = span::span("storage.append", "");
                        journal.append(&bytes).expect("journal append");
                        if self.phase == Phase::Fresh {
                            self.counts.records += 1;
                            self.counts.record_bytes += bytes.len() as u64;
                        }
                    }
                }
                VcOutput::Commit => {
                    if adaptive && !visible_later {
                        continue;
                    }
                    if let Some(journal) = self.journals[node].as_mut() {
                        let _span = span::span("storage.commit", "");
                        let t0 = Instant::now();
                        journal.commit().expect("journal commit");
                        let waited = t0.elapsed().as_nanos() as u64;
                        committed = true;
                        self.commit_wait.total_ns += waited;
                        if self.phase == Phase::Fresh {
                            self.counts.commits += 1;
                            self.commit_wait.fresh_ns += waited;
                        }
                    }
                }
                VcOutput::Deliver(finalized) => self.finalized.push(finalized),
                VcOutput::Recover => panic!("vc-{node} asked for recovery in a fault-free run"),
            }
        }
        if committed {
            if let Some(journal) = self.journals[node].as_mut() {
                let _span = span::span("storage.compact", "");
                journal
                    .maybe_compact(&self.cores[node].durable())
                    .expect("journal compaction");
            }
        }
    }

    /// Delivers queued envelopes, collector by collector, until every
    /// inbox is empty. A collector drains its whole inbox as one burst
    /// and batch-verifies it before stepping, like the real driver.
    fn pump(&mut self) {
        loop {
            let mut idle = true;
            for node in 0..self.cores.len() {
                if self.inbox[node].is_empty() {
                    continue;
                }
                idle = false;
                let burst: Vec<VcInput> =
                    self.inbox[node].drain(..).map(VcInput::Deliver).collect();
                if burst.len() > 1 {
                    let _span = span::span("vc.preverify", "");
                    self.cores[node].preverify(&burst);
                }
                for input in burst {
                    self.step(node, input);
                }
            }
            if idle {
                return;
            }
        }
    }
}

/// The voter's terminal: `send` hands the envelope to the cluster and
/// runs it until it is idle, so the reply is waiting when the voter
/// asks for it.
struct PumpEndpoint<'a> {
    id: NodeId,
    cluster: RefCell<&'a mut Cluster>,
}

impl TransportEndpoint for PumpEndpoint<'_> {
    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, msg: Msg) {
        let _span = span::span("driver.pump", "");
        let mut cluster = self.cluster.borrow_mut();
        cluster.route(Envelope {
            from: self.id,
            to,
            msg,
        });
        cluster.pump();
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.try_recv().ok_or(RecvError)
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        // Nothing else runs: an empty inbox stays empty.
        self.try_recv().ok_or(RecvTimeoutError::Timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.cluster.borrow_mut().client_inbox.pop_front()
    }

    fn now_ns(&self) -> u64 {
        span::now_ns()
    }
}

/// A BB replica read across the snapshot codec, as `tcp_fresh`'s remote
/// replicas are (`Msg::BbReadResponse` carries an encoded snapshot).
struct CodecBb {
    node: Arc<BbNode>,
    snapshot_bytes: std::sync::atomic::AtomicU64,
}

impl BbApi for CodecBb {
    fn read(&self) -> Option<BbSnapshot> {
        let snapshot = self.node.read();
        let bytes = {
            let _span = span::span("bb.snapshot_encode", "");
            bb_codec::encode_snapshot(&snapshot)
        };
        self.snapshot_bytes
            .store(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
        let _span = span::span("bb.snapshot_decode", "");
        bb_codec::decode_snapshot(&bytes).ok()
    }

    fn submit_vote_set(
        &self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.node.submit_vote_set(from_vc, set, sig)
    }

    fn submit_msk_share(&self, share: &SignedShare) -> Result<(), WriteError> {
        self.node.submit_msk_share(share)
    }

    fn submit_trustee_post(
        &self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.node.submit_trustee_post(post, sig)
    }
}

/// What one drive of the election produced.
struct Driven {
    tally: Option<Vec<u64>>,
    audit_ok: bool,
    attempted: u64,
    failed: u64,
    counts: Counts,
    split: FusedSplit,
    commit_wait: CommitWait,
    /// Wall time of the whole drive and of its fresh-cast phase.
    wall_ns: u64,
    fresh_wall_ns: u64,
    snapshot_bytes: u64,
    post_bytes: u64,
    spans: Vec<span::Span>,
    crypto: MetricsSnapshot,
    misses: Vec<String>,
}

fn file_journal(dir: &Path, label: &str) -> DynJournal {
    let disk: DynDisk = Arc::new(FileDisk::open(dir.join(label)).expect("journal directory"));
    Journal::new(
        disk,
        JournalConfig {
            adaptive_commit: true,
            ..JournalConfig::default()
        },
    )
}

/// Casts `ballot` once through a fresh voter terminal; the receipt if it
/// verified against the printed ballot.
fn cast(
    cluster: &mut Cluster,
    setup: &SetupOutput,
    seed: u64,
    ballot: usize,
    client: u32,
    audits: &mut Vec<AuditInfo>,
) -> Option<u64> {
    let options = setup.params.num_options;
    let (option, part) = choice(seed, ballot, options);
    let printed = &setup.ballots[ballot];
    span::set_serial(Some(printed.serial.0));
    let endpoint = PumpEndpoint {
        id: NodeId::client(client),
        cluster: RefCell::new(cluster),
    };
    let rng =
        StdRng::seed_from_u64(seed ^ 0x564F_5445 ^ ((ballot as u64) << 24) ^ u64::from(client));
    let outcome = {
        let _span = span::span("core.voter", "");
        Voter::new(
            printed,
            &endpoint,
            setup.params.num_vc,
            Duration::from_secs(5),
            rng,
        )
        .vote_with_part(option, part)
    };
    span::set_serial(None);
    let record = outcome.ok()?;
    let expected = printed.part(part).line_for_option(option)?.receipt;
    let receipt = record.audit.receipt;
    audits.push(record.audit);
    (receipt == expected).then_some(receipt)
}

/// Drives one complete election single-threaded. `wal_dir` puts file
/// journals under the collectors and the BB replicas; `tcp` routes every
/// hop across authenticated channels and every BB read across the
/// snapshot codec.
fn drive(
    workload: &Workload,
    seed: u64,
    measured: usize,
    wal_dir: Option<&Path>,
    spans_on: bool,
) -> Driven {
    let tcp = workload.net == Net::TcpLoopback;
    let params = workload.params(measured);
    span::start(spans_on);
    let crypto = if spans_on {
        let recorder = Recorder::wall();
        ddemos_obs::install_global(recorder.clone());
        recorder
    } else {
        Recorder::disabled()
    };
    crypto.set_phase("setup");
    let started = Instant::now();
    let root = span::span("driver", "");
    let mut misses = Vec::new();

    // EA setup on one worker: the driver is single-threaded throughout.
    let mut setup = {
        let _span = span::span("ea.setup", "");
        ElectionAuthority::new(params.clone(), seed).setup_with(SetupProfile::Full, &Pool::new(1))
    };

    // Collectors, journals, the authenticated mesh.
    let durable = wal_dir.is_some();
    let mut cores = Vec::new();
    let mut journals = Vec::new();
    let recovery_init = durable.then(|| setup.vc_inits[0].clone());
    for init in &mut setup.vc_inits {
        let rows = std::mem::take(&mut init.ballots);
        journals.push(wal_dir.map(|dir| file_journal(dir, &format!("vc-{}", init.node_index))));
        let _span = span::span("vc.new", "");
        cores.push(VcCore::new(
            init.clone(),
            MemoryStore::new(rows, params.num_ballots),
            VcBehavior::Honest,
            POLL,
            setup.consensus_beacon,
            durable,
        ));
    }
    let links = tcp.then(|| {
        let mut links = Links {
            auth: AuthConfig::new(seeded_secret(seed)),
            nonce: 0,
            between: BTreeMap::new(),
            voter: None,
        };
        for from in 0..params.num_vc as u32 {
            for to in (0..params.num_vc as u32).filter(|to| *to != from) {
                let (link, _) = links.handshake(NodeId::vc(from), NodeId::vc(to));
                links.between.insert((from, to), link);
            }
        }
        links
    });
    let mut cluster = Cluster {
        inbox: vec![VecDeque::new(); cores.len()],
        cores,
        journals,
        client_inbox: VecDeque::new(),
        links,
        finalized: Vec::new(),
        phase: Phase::Warmup,
        counts: Counts::default(),
        split: FusedSplit::default(),
        commit_wait: CommitWait::default(),
    };
    for node in 0..cluster.cores.len() {
        let outputs = cluster.cores[node].start();
        cluster.execute(node, outputs);
    }

    // Bulletin board replicas and trustees.
    let bb_nodes: Vec<Arc<BbNode>> = (0..params.num_bb)
        .map(|b| {
            let _span = span::span("bb.new", "");
            let node = Arc::new(BbNode::new(setup.bb_init.clone()));
            if let Some(dir) = wal_dir {
                node.attach_journal(file_journal(dir, &format!("bb-{b}")))
                    .expect("bb journal attaches");
            }
            node
        })
        .collect();
    // On `tcp_fresh` every BB read crosses the snapshot codec.
    let codec_bbs: Vec<Arc<CodecBb>> = if tcp {
        bb_nodes
            .iter()
            .map(|node| {
                Arc::new(CodecBb {
                    node: node.clone(),
                    snapshot_bytes: Default::default(),
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let bb_apis: Vec<Arc<dyn BbApi>> = if tcp {
        codec_bbs.iter().map(|bb| bb.clone() as _).collect()
    } else {
        bb_nodes.iter().map(|bb| bb.clone() as _).collect()
    };
    let reader = MajorityReader::over(bb_apis.clone());
    let read_majority = |what: &str, misses: &mut Vec<String>| {
        let _span = span::span("bb.read_majority", "");
        let snapshot = reader.read_snapshot();
        if snapshot.is_none() {
            misses.push(format!("no BB majority for {what}"));
        }
        snapshot
    };
    let trustees: Vec<Trustee> = setup
        .trustee_inits
        .iter()
        .cloned()
        .map(|init| Trustee::new(init).with_threads(1))
        .collect();

    // Readiness: one warm-up ballot, as in the end-to-end run (the
    // cluster is up by construction, so the first cast succeeds).
    let mut audits = Vec::new();
    let mut next_client = 0u32;
    let mut client = || {
        next_client += 1;
        next_client
    };
    let warm = measured;
    if cast(&mut cluster, &setup, seed, warm, client(), &mut audits).is_none() {
        misses.push("warm-up cast failed".to_string());
    }

    // Fresh casts, then every ballot again.
    crypto.set_phase("cast");
    cluster.phase = Phase::Fresh;
    let fresh_started = Instant::now();
    let fresh: Vec<Option<u64>> = {
        let _span = span::span("driver.cast", "");
        (0..measured)
            .map(|ballot| cast(&mut cluster, &setup, seed, ballot, client(), &mut audits))
            .collect()
    };
    let fresh_wall_ns = fresh_started.elapsed().as_nanos() as u64;
    crypto.set_phase("recast");
    cluster.phase = Phase::Recast;
    let recast: Vec<Option<u64>> = {
        let _span = span::span("driver.recast", "");
        (0..measured)
            .map(|ballot| cast(&mut cluster, &setup, seed, ballot, client(), &mut audits))
            .collect()
    };
    let fresh_ok = fresh.iter().flatten().count();
    let same = fresh
        .iter()
        .zip(&recast)
        .filter(|(a, b)| a.is_some() && a == b)
        .count();

    // Close: vote-set consensus, then the VC→BB push.
    crypto.set_phase("close");
    cluster.phase = Phase::Consensus;
    {
        let _span = span::span("driver.close", "");
        for node in 0..cluster.cores.len() {
            cluster.step(node, VcInput::ClosePolls);
        }
        cluster.pump();
        let mut rounds = 0;
        while cluster.finalized.len() < cluster.cores.len() && rounds < MAX_TICK_ROUNDS {
            for node in 0..cluster.cores.len() {
                cluster.step(node, VcInput::Tick);
            }
            cluster.pump();
            rounds += 1;
        }
        if cluster.finalized.len() < params.vc_quorum() {
            misses.push(format!(
                "{} of {} collectors finalized a vote set",
                cluster.finalized.len(),
                cluster.cores.len()
            ));
        }
        // The harness pushes the first quorum of finalized sets.
        for finalized in cluster.finalized.iter().take(params.vc_quorum()) {
            for bb in &bb_apis {
                {
                    let _span = span::span("bb.vote_set", "");
                    let _ = bb.submit_vote_set(
                        finalized.node_index,
                        &finalized.vote_set,
                        &finalized.signature,
                    );
                }
                let _span = span::span("bb.msk_share", "");
                let _ = bb.submit_msk_share(&finalized.msk_share);
            }
        }
        let published = read_majority("the encrypted tally", &mut misses);
        if published.is_none_or(|s| s.challenge.is_none()) {
            misses.push("BB majority holds no challenge after the push".to_string());
        }
        for journal in cluster.journals.iter_mut().flatten() {
            let _span = span::span("storage.commit", "");
            journal.commit().expect("final journal commit");
        }
    }

    // Tally: trustee posts, BB verification, the published result.
    crypto.set_phase("tally");
    let mut post_bytes = 0;
    let tally = {
        let _span = span::span("driver.tally", "");
        let snapshot = read_majority("the trustee input", &mut misses);
        for trustee in &trustees {
            let Some(snapshot) = &snapshot else { break };
            let produced = {
                let _span = span::span("trustee.post", "");
                trustee.produce_post(snapshot)
            };
            let (post, sig) = match produced {
                Ok(produced) => produced,
                Err(e) => {
                    misses.push(format!("trustee {}: {e}", trustee.index()));
                    continue;
                }
            };
            if trustee.index() == 0 {
                // The post's wire size, a count: encoded once.
                let _span = span::span("protocol.encode", "TrusteePost");
                let mut w = Writer::new();
                put_trustee_post(&mut w, &post);
                post_bytes = w.into_bytes().len() as u64;
            }
            let post = Arc::new(post);
            for bb in &bb_apis {
                let _span = span::span("bb.trustee_post", "");
                let _ = bb.submit_trustee_post(post.clone(), &sig);
            }
        }
        read_majority("the result", &mut misses)
            .and_then(|s| s.result)
            .map(|r| r.tally)
    };

    // Audit: public, then delegated (which repeats the public pass, as
    // `Election::audit` runs it).
    crypto.set_phase("audit");
    let audit_ok = {
        let _span = span::span("driver.audit", "");
        match read_majority("the audit", &mut misses) {
            Some(snapshot) => {
                let auditor = Auditor::new(&setup.bb_init, &snapshot).with_threads(1);
                let public = {
                    let _span = span::span("core.audit_public", "");
                    auditor.verify_public()
                };
                let delegated = {
                    let _span = span::span("core.audit_delegated", "");
                    auditor.verify_delegated(&audits)
                };
                public.ok() && delegated.ok()
            }
            None => false,
        }
    };

    // Reads beside writes: replay collector 0's journal into a fresh core.
    crypto.set_phase("recover");
    if let (Some(dir), Some(mut init)) = (wal_dir, recovery_init) {
        let rows = std::mem::take(&mut init.ballots);
        let mut core = VcCore::new(
            init,
            MemoryStore::new(rows, params.num_ballots),
            VcBehavior::Honest,
            POLL,
            setup.consensus_beacon,
            true,
        );
        let mut journal = file_journal(dir, "vc-0");
        let _span = span::span("storage.recover", "");
        match journal.recover(&mut core.durable()) {
            Ok(stats) if stats.replayed > 0 || stats.from_snapshot => {}
            other => misses.push(format!("journal replay recovered nothing: {other:?}")),
        }
    }

    drop(root);
    let wall_ns = started.elapsed().as_nanos() as u64;
    ddemos_obs::clear_global();
    let expected = expected_tally(seed, measured, &[warm], workload.options);
    if tally.as_ref() != Some(&expected) {
        misses.push(format!("traced tally {tally:?}, expected {expected:?}"));
    }
    Driven {
        tally,
        audit_ok,
        attempted: 2 * measured as u64,
        failed: (measured - fresh_ok) as u64 + (measured - same) as u64,
        counts: cluster.counts.clone(),
        split: cluster.split,
        commit_wait: cluster.commit_wait,
        wall_ns,
        fresh_wall_ns,
        snapshot_bytes: codec_bbs.first().map_or(0, |bb| {
            bb.snapshot_bytes.load(std::sync::atomic::Ordering::Relaxed)
        }),
        post_bytes,
        spans: span::finish(),
        crypto: crypto.snapshot(),
        misses,
    }
}

/// Total nanoseconds and sample count of one crypto hook histogram,
/// over every phase or one.
fn crypto_total(snapshot: &MetricsSnapshot, name: &str, phase: Option<&str>) -> (u64, u64) {
    snapshot
        .hists
        .iter()
        .filter(|(key, _)| {
            let (n, p, _) = split_key(key);
            n == name && phase.is_none_or(|want| want == p)
        })
        .fold((0, 0), |(ns, count), (_, h)| {
            (ns + h.total_ns(), count + h.count())
        })
}

/// Runs the traced workload and reports the per-layer metrics.
pub fn run(workload: &Workload, seed: u64, measured: usize) -> RunOutput {
    let mut out = RunOutput::default();
    let run_dir = RunDir::create(&format!("{}-trace", workload.name)).expect("scratch directory");
    let wal_dir = |rep: &str| workload.wal.then(|| run_dir.path().join(rep));
    if workload.wal {
        out.note(format!(
            "wal: real files under {} on {}",
            run_dir.path().display(),
            env::fs_type(run_dir.path())
        ));
    }
    out.note(format!(
        "traced driver: single-threaded, {measured} ballots (+1 warm-up), m={}, run twice (spans off, on)",
        workload.options
    ));

    let plain = drive(workload, seed, measured, wal_dir("off").as_deref(), false);
    let traced = drive(workload, seed, measured, wal_dir("on").as_deref(), true);
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    for miss in plain.misses.iter().chain(&traced.misses) {
        out.check(false, || miss.clone());
    }
    out.check(traced.audit_ok && plain.audit_ok, || {
        "traced audit failed".to_string()
    });
    out.check(plain.tally == traced.tally, || {
        format!(
            "tally differs with spans on: {:?} vs {:?}",
            plain.tally, traced.tally
        )
    });
    out.check(plain.counts == traced.counts, || {
        format!(
            "counts differ with spans on: {:?} vs {:?}",
            plain.counts, traced.counts
        )
    });

    // The same workload through the harness, fresh casts only: the
    // throughput the CPU ledger is checked against, and the same tally
    // inputs through the real drivers.
    let e2e_dir = wal_dir("e2e");
    let harness_cast = match e2e::deploy(workload, seed, measured, e2e_dir.as_deref()) {
        Ok(deployment) => {
            let fresh = e2e::cast_phase(
                &deployment.election,
                seed,
                measured,
                workload.options,
                env::voter_threads(),
                1,
            );
            out.check(fresh.ok() == measured, || {
                format!("{} of {measured} harness casts verified", fresh.ok())
            });
            deployment.shutdown();
            Some(fresh)
        }
        Err(e) => {
            out.check(false, || format!("harness deployment: {e}"));
            None
        }
    };
    let cast_per_s = harness_cast
        .as_ref()
        .map_or(f64::NAN, e2e::PhaseSamples::per_second);

    let trace_path = env::scratch_root().join(format!("{}.trace.jsonl", workload.name));
    match std::fs::write(&trace_path, span::to_jsonl(&traced.spans)) {
        Ok(()) => out.note(format!(
            "trace: {} spans in {}",
            traced.spans.len(),
            trace_path.display()
        )),
        Err(e) => out.note(format!(
            "trace not written to {}: {e}",
            trace_path.display()
        )),
    }

    let ledger = Ledger::new(&traced.spans);
    for line in ledger.table().lines() {
        out.note(line.trim_start_matches("# ").to_string());
    }
    let casts = measured as f64;
    let ballots = (measured + WARMUP_BALLOTS) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_us = |t: span::Totals| {
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / 1e3 / t.count as f64
        }
    };
    let c = &traced.counts;
    // The fresh-cast phase only: `vc.step` is named per phase, the shared
    // span names are taken from under the phase's grouping span.
    let fresh = Ledger::under(&traced.spans, "driver.cast");
    let split = &traced.split;

    let ea = ledger.name("ea.setup");
    out.emit("ea.setup_ms", ms(ea.total_ns));
    out.emit("ea.setup_us_per_ballot", us(ea.total_ns) / ballots);

    let announce = ledger.label("protocol.encode", "Announce");
    out.emit(
        "protocol.encode_us_per_cast",
        us(fresh.name("protocol.encode").total_ns + split.encode_ns) / casts,
    );
    out.emit(
        "protocol.decode_us_per_cast",
        us(fresh.name("protocol.decode").total_ns + split.decode_ns) / casts,
    );
    out.emit("protocol.frames_per_cast", c.frames as f64 / casts);
    out.emit("protocol.bytes_per_cast", c.frame_bytes as f64 / casts);
    out.emit("protocol.announce_encode_ms", ms(announce.total_ns));

    out.emit("net.handshake_us", mean_us(fresh.name("net.handshake")));
    out.emit(
        "net.seal_us_per_cast",
        us(fresh.name("net.seal").total_ns + split.seal_ns) / casts,
    );
    out.emit(
        "net.open_us_per_cast",
        us(fresh.name("net.open").total_ns + split.open_ns) / casts,
    );
    out.emit("net.conns_per_cast", c.conns as f64 / casts);
    out.emit("net.wire_bytes_per_cast", c.wire_bytes as f64 / casts);
    out.emit("net.sim_msgs_per_cast", c.msgs as f64 / casts);

    for kind in ["Vote", "Endorse", "Endorsement", "VoteP"] {
        let step = ledger.label("vc.step", kind);
        out.emit_with_samples(
            &format!("vc.step_us.{kind}"),
            mean_us(step),
            step.count as usize,
        );
    }
    let step = ledger.name("vc.step");
    let preverify = fresh.name("vc.preverify").total_ns;
    out.emit("vc.preverify_us_per_cast", us(preverify) / casts);
    out.emit("vc.steps_per_cast", c.steps as f64 / casts);
    out.emit("vc.cpu_ms_per_cast", ms(step.self_ns + preverify) / casts);
    out.emit("vc.recast_step_us", mean_us(ledger.name("vc.recast_step")));
    out.emit(
        "vc.consensus_step_ms",
        ms(ledger.name("vc.consensus_step").self_ns),
    );
    out.emit("vc.consensus_msgs", c.consensus_msgs as f64);

    let (msm_ns, _) = crypto_total(&traced.crypto, "crypto.msm_ns", None);
    let (batch_ns, _) = crypto_total(&traced.crypto, "crypto.verify_batch_ns", None);
    let (batch_cast_ns, _) = crypto_total(&traced.crypto, "crypto.verify_batch_ns", Some("cast"));
    let (_, scalar_count) = crypto_total(&traced.crypto, "crypto.verify_ns", None);
    out.emit("crypto.msm_ms", ms(msm_ns));
    out.emit("crypto.verify_batch_ms", ms(batch_ns));
    out.emit("crypto.verify_batch_us_per_cast", us(batch_cast_ns) / casts);
    out.emit("crypto.verify_scalar_count", scalar_count as f64);

    out.emit(
        "storage.append_us_per_cast",
        us(fresh.name("storage.append").total_ns) / casts,
    );
    out.emit("storage.commit_us", mean_us(fresh.name("storage.commit")));
    out.emit("storage.commits_per_cast", c.commits as f64 / casts);
    out.emit(
        "storage.records_per_commit",
        if c.commits == 0 {
            0.0
        } else {
            c.records as f64 / c.commits as f64
        },
    );
    out.emit("storage.bytes_per_cast", c.record_bytes as f64 / casts);
    out.emit(
        "storage.recover_ms",
        ms(ledger.name("storage.recover").total_ns),
    );

    out.emit("bb.vote_set_ms", ms(ledger.name("bb.vote_set").total_ns));
    out.emit("bb.msk_share_ms", ms(ledger.name("bb.msk_share").total_ns));
    out.emit(
        "bb.trustee_post_ms",
        ms(ledger.name("bb.trustee_post").total_ns),
    );
    out.emit(
        "bb.read_majority_ms",
        ms(ledger.name("bb.read_majority").self_ns),
    );
    out.emit(
        "bb.snapshot_encode_ms",
        ms(ledger.name("bb.snapshot_encode").total_ns),
    );
    out.emit(
        "bb.snapshot_decode_ms",
        ms(ledger.name("bb.snapshot_decode").total_ns),
    );
    out.emit("bb.snapshot_bytes", traced.snapshot_bytes as f64);

    let post = ledger.name("trustee.post");
    out.emit("trustee.post_ms", ms(post.total_ns));
    out.emit("trustee.post_us_per_ballot", mean_us(post) / ballots);
    out.emit("trustee.post_bytes", traced.post_bytes as f64);

    out.emit(
        "core.voter_us_per_cast",
        us(fresh.name("core.voter").self_ns) / casts,
    );
    let delegated = ledger.name("core.audit_delegated");
    out.emit(
        "core.audit_public_ms",
        ms(ledger.name("core.audit_public").total_ns),
    );
    out.emit("core.audit_delegated_ms", ms(delegated.total_ns));
    out.emit("core.audit_us_per_ballot", us(delegated.total_ns) / ballots);

    out.emit(
        "election.close_ms",
        ms(ledger.name("driver.close").total_ns),
    );
    out.emit(
        "election.tally_ms",
        ms(ledger.name("driver.tally").total_ns),
    );
    // The tail of the cast latency has no bound among the end-to-end
    // metrics (too noisy on a shared host), so it is recorded here, from
    // the harness phase above.
    let harness_pct = |p: f64| {
        harness_cast
            .as_ref()
            .and_then(|fresh| stats::percentile(&fresh.latencies_ms, p))
            .unwrap_or(f64::NAN)
    };
    out.emit_with_samples("election.cast_p50_ms", harness_pct(50.0), measured);
    out.emit_with_samples("election.cast_p95_ms", harness_pct(95.0), measured);

    // The driver is single-threaded, so its wall time is processor time
    // except where it waits for the disk.
    let cpu_ms_per_cast = ms(traced.fresh_wall_ns - traced.commit_wait.fresh_ns) / casts;
    out.emit("trace.cpu_ms_per_cast", cpu_ms_per_cast);
    let implied_cores = cpu_ms_per_cast * cast_per_s / 1e3;
    out.emit("trace.implied_cores", implied_cores);
    out.note(format!(
        "trace.implied_cores = trace.cpu_ms_per_cast x {cast_per_s:.1} harness casts/s / 1000 (nproc {}){}",
        env::nproc(),
        if implied_cores > env::nproc() as f64 {
            ": MORE than the machine has, so ledger and throughput disagree"
        } else {
            ""
        }
    ));
    let driver = ledger.name("driver");
    out.check(ledger.self_ns_total() == driver.total_ns, || {
        format!(
            "self times sum to {} ns, the driver's wall time is {} ns",
            ledger.self_ns_total(),
            driver.total_ns
        )
    });
    out.emit(
        "trace.unaccounted_pct",
        100.0 * ledger.self_ns_of_layer("driver") as f64 / driver.total_ns as f64,
    );
    // What tracing costs: every span and every crypto-hook sample, at the
    // cost of one span measured on this machine now, as a share of the
    // traced drive. The difference between the spans-on and spans-off
    // drives is printed beside it, not reported as the metric: two drives
    // of the same election differ by up to ±15 % on a shared machine,
    // hundreds of times what the spans cost.
    let hook_samples: u64 = traced.crypto.hists.values().map(|h| h.count()).sum();
    let events = traced.spans.len() as f64 + hook_samples as f64;
    let span_ns = span::cost_ns();
    out.emit(
        "trace.overhead_pct",
        100.0 * events * span_ns / traced.wall_ns as f64,
    );
    let busy = |d: &Driven| (d.wall_ns - d.commit_wait.total_ns) as f64;
    out.note(format!(
        "trace.overhead_pct = ({} spans + {hook_samples} hook samples) x {span_ns:.0} ns / drive; \
         spans-on drive vs spans-off drive: {:+.1} % (machine noise)",
        traced.spans.len(),
        100.0 * (busy(&traced) - busy(&plain)) / busy(&plain)
    ));
    out
}
