//! Majority reader over the replicated Bulletin Board.
//!
//! The paper ships a Firefox extension that issues every read to all BB
//! nodes, compares the responses in binary form, and forwards the one a
//! majority agrees on (§V "Web browser replicated service reader"). This is
//! that component's library equivalent: readers never see a minority
//! answer, and divergent nodes are simply outvoted.
//!
//! The reader is replica-location agnostic: it speaks [`BbApi`], which a
//! [`BbNode`] implements directly and [`RemoteBb`] implements by
//! request/response envelopes to a replica's [`crate::node::serve`] loop,
//! on any transport. A party's clients of every replica share one
//! endpoint. An unreachable replica answers `None`/`Unavailable` and is
//! outvoted like any other divergent node.

use crate::core::WriteError;
use crate::node::BbNode;
use crate::BbSnapshot;
use crossbeam_channel::RecvTimeoutError;
use ddemos_crypto::schnorr::Signature;
use ddemos_crypto::vss::SignedShare;
use ddemos_net::DynEndpoint;
use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::messages::{BbWriteMsg, BbWriteOutcome, Msg};
use ddemos_protocol::posts::{TrusteePost, VoteSet};
use ddemos_protocol::NodeId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// The shortest and longest pause between two reads of a board that does
/// not show what the reader waits for ([`retry_pause`]).
const RETRY_MIN: Duration = Duration::from_millis(2);
const RETRY_MAX: Duration = Duration::from_millis(100);

/// The pause before the next read of a reader that has waited `waited`
/// so far: a sixteenth of it, within 2 to 100 ms. A reader is then at
/// most that late to see what it waits for, and a long wait costs few
/// reads.
pub fn retry_pause(waited: Duration) -> Duration {
    (waited / 16).clamp(RETRY_MIN, RETRY_MAX)
}

/// One Bulletin Board replica, wherever it lives: a [`BbNode`] in hand
/// or a [`RemoteBb`] across a transport. Reads return `None` when the
/// replica is unreachable; writes report [`WriteError::Unavailable`].
pub trait BbApi: Send + Sync {
    /// Public read of the replica's snapshot.
    fn read(&self) -> Option<BbSnapshot>;

    /// Starts a read of the snapshot's canonical encoding
    /// ([`crate::codec`]), so a reader can have a read in flight at every
    /// replica and compare the answers byte for byte.
    fn start_read(&self) -> PendingRead<'_> {
        PendingRead(Pending::Answered(
            self.read()
                .map(|snapshot| Arc::new(crate::codec::encode_snapshot(&snapshot))),
        ))
    }

    /// Submits a VC node's final vote set.
    ///
    /// # Errors
    /// See [`WriteError`].
    fn submit_vote_set(
        &self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> Result<(), WriteError>;

    /// Submits a VC node's `msk` share.
    ///
    /// # Errors
    /// See [`WriteError`].
    fn submit_msk_share(&self, share: &SignedShare) -> Result<(), WriteError>;

    /// Submits a trustee post.
    ///
    /// # Errors
    /// See [`WriteError`].
    fn submit_trustee_post(
        &self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> Result<(), WriteError>;
}

impl BbApi for BbNode {
    fn read(&self) -> Option<BbSnapshot> {
        Some(BbNode::read(self))
    }

    fn start_read(&self) -> PendingRead<'_> {
        let encoded = Arc::new(self.with_snapshot(crate::codec::encode_snapshot));
        PendingRead(Pending::Answered(Some(encoded)))
    }

    fn submit_vote_set(
        &self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        BbNode::submit_vote_set(self, from_vc, set, sig)
    }

    fn submit_msk_share(&self, share: &SignedShare) -> Result<(), WriteError> {
        BbNode::submit_msk_share(self, share)
    }

    fn submit_trustee_post(
        &self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        BbNode::submit_trustee_post(self, post, sig)
    }
}

/// A read begun with [`BbApi::start_read`]: the answer in hand, or a
/// request awaiting its reply on an endpoint a party's clients share.
pub struct PendingRead<'a>(Pending<'a>);

enum Pending<'a> {
    Answered(Option<Arc<Vec<u8>>>),
    Requested {
        port: &'a Mutex<Port>,
        request_id: u64,
    },
}

impl PendingRead<'_> {
    /// The answer: `None` when the replica is unreachable, or (for a
    /// remote one) has not replied within [`REQUEST_TIMEOUT`].
    pub fn wait(self) -> Option<Arc<Vec<u8>>> {
        match self.0 {
            Pending::Answered(answer) => answer,
            Pending::Requested { port, request_id } => {
                let reply = port.lock().replies(&[request_id]).pop_first()?.1;
                snapshot_of(&reply).cloned()
            }
        }
    }
}

fn snapshot_of(reply: &Msg) -> Option<&Arc<Vec<u8>>> {
    match reply {
        Msg::BbReadResponse { snapshot, .. } => Some(snapshot),
        _ => None,
    }
}

/// The encoding at least `need` of `answers` are, byte for byte.
fn agreed<'a>(
    answers: impl Iterator<Item = &'a Arc<Vec<u8>>> + Clone,
    need: usize,
) -> Option<&'a Arc<Vec<u8>>> {
    answers
        .clone()
        .find(|answer| answers.clone().filter(|other| other == answer).count() >= need)
}

/// How long a [`RemoteBb`] waits, in its endpoint's time base, for a
/// reply before it counts the replica unreachable.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One party's endpoint to the board, shared by its [`RemoteBb`] clients
/// of every replica. A wait holds the lock while it reads the endpoint,
/// and files a reply to another outstanding request for that request's
/// own wait.
struct Port {
    endpoint: DynEndpoint,
    next_request: u64,
    /// Requests sent and not yet answered or given up on.
    outstanding: BTreeSet<u64>,
    /// Replies read by a wait they did not belong to.
    parked: BTreeMap<u64, Msg>,
    /// The transport has shut down.
    closed: bool,
}

impl Port {
    fn send(&mut self, to: NodeId, make: impl FnOnce(u64) -> Msg) -> u64 {
        let request_id = self.next_request;
        self.next_request += 1;
        self.outstanding.insert(request_id);
        self.endpoint.send(to, make(request_id));
        request_id
    }

    /// Reads one envelope within `timeout`: a reply to an outstanding
    /// request is parked, anything else dropped. `false` on a timeout or
    /// once the transport has shut down.
    fn read(&mut self, timeout: Duration) -> bool {
        let env = match self.endpoint.recv_timeout(timeout) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) => return false,
            Err(RecvTimeoutError::Disconnected) => {
                self.closed = true;
                return false;
            }
        };
        if let Msg::BbWriteReply { request_id, .. } | Msg::BbReadResponse { request_id, .. } =
            env.msg
        {
            if self.outstanding.contains(&request_id) {
                self.parked.insert(request_id, env.msg);
            }
        }
        true
    }

    /// Collects the replies to `ids`, in whatever order they come, until
    /// each has one or [`REQUEST_TIMEOUT`] passes without a new one; the
    /// requests are then given up on, and a late reply is dropped.
    fn replies(&mut self, ids: &[u64]) -> BTreeMap<u64, Msg> {
        self.replies_until(ids, |_| false)
    }

    /// [`Port::replies`], ending also once `enough` says the replies in
    /// are.
    fn replies_until(
        &mut self,
        ids: &[u64],
        enough: impl Fn(&BTreeMap<u64, Msg>) -> bool,
    ) -> BTreeMap<u64, Msg> {
        let timeout_ns = REQUEST_TIMEOUT.as_nanos() as u64;
        let mut replies = BTreeMap::new();
        let mut deadline = self.endpoint.now_ns() + timeout_ns;
        loop {
            for id in ids {
                if let Some(reply) = self.parked.remove(id) {
                    replies.insert(*id, reply);
                    deadline = self.endpoint.now_ns() + timeout_ns;
                }
            }
            let left = deadline.saturating_sub(self.endpoint.now_ns());
            if replies.len() == ids.len()
                || enough(&replies)
                || !self.read(Duration::from_nanos(left))
            {
                break;
            }
        }
        for id in ids {
            self.outstanding.remove(id);
        }
        replies
    }
}

/// A [`BbApi`] client for one replica: request/response envelopes with
/// correlation ids over an endpoint it shares with the party's clients of
/// the other replicas ([`RemoteBb::replicas`]). Waits run on the
/// endpoint's clock, so under virtual time a timeout costs no wall time.
pub struct RemoteBb {
    port: Arc<Mutex<Port>>,
    target: NodeId,
}

impl RemoteBb {
    /// Clients of the replicas `bb(0)…bb(num_bb − 1)`, all over
    /// `endpoint`: one party, one endpoint to the board.
    pub fn replicas(endpoint: DynEndpoint, num_bb: usize) -> Vec<Arc<RemoteBb>> {
        let port = Arc::new(Mutex::new(Port {
            endpoint,
            next_request: 1,
            outstanding: BTreeSet::new(),
            parked: BTreeMap::new(),
            closed: false,
        }));
        (0..num_bb as u32)
            .map(|j| {
                Arc::new(RemoteBb {
                    port: port.clone(),
                    target: NodeId::bb(j),
                })
            })
            .collect()
    }

    /// Submits `writes`, in order, to every replica in runs costing at most
    /// [`WINDOW_BYTES`] (or one costlier write alone), and waits for the
    /// replies. A run goes to every replica before any reply is awaited, so
    /// the replicas verify in parallel on either clock, and a replica gets
    /// the next run once it has answered (or timed out on) the last.
    /// Returns, for each write, how many replicas accepted it.
    pub fn write_all(replicas: &[Arc<RemoteBb>], writes: &[BbWriteMsg]) -> Vec<usize> {
        let mut accepted = vec![0; writes.len()];
        // Per replica, the (request id, write index) pairs of its last run.
        let mut sent: Vec<Vec<(u64, usize)>> = vec![Vec::new(); replicas.len()];
        let mut bytes = writes.first().map_or(0, window_cost);
        let runs = writes.chunk_by(|_, next| {
            let fits = bytes + window_cost(next) <= WINDOW_BYTES;
            bytes = window_cost(next) + if fits { bytes } else { 0 };
            fits
        });
        let mut first = 0;
        for run in runs {
            for (bb, ids) in replicas.iter().zip(&mut sent) {
                bb.count_accepted(ids, &mut accepted);
                let mut port = bb.port.lock();
                *ids = run
                    .iter()
                    .zip(first..)
                    .map(|(write, index)| {
                        let write = write.clone();
                        let id =
                            port.send(bb.target, |request_id| Msg::BbWrite { request_id, write });
                        (id, index)
                    })
                    .collect();
            }
            first += run.len();
        }
        for (bb, ids) in replicas.iter().zip(&sent) {
            bb.count_accepted(ids, &mut accepted);
        }
        accepted
    }

    /// Waits for the replies to `ids` and counts each accepted write.
    fn count_accepted(&self, ids: &[(u64, usize)], accepted: &mut [usize]) {
        let request_ids: Vec<u64> = ids.iter().map(|(id, _)| *id).collect();
        let replies = self.port.lock().replies(&request_ids);
        for (id, index) in ids {
            if let (
                Some(Msg::BbWriteReply {
                    outcome: BbWriteOutcome::Accepted,
                    ..
                }),
                Some(count),
            ) = (replies.get(id), accepted.get_mut(*index))
            {
                *count += 1;
            }
        }
    }

    /// Waits `d` on the endpoint this client shares, keeping the replies
    /// that arrive meanwhile for the requests they answer. `false` once the
    /// transport has shut down.
    pub fn idle(&self, d: Duration) -> bool {
        let mut port = self.port.lock();
        let deadline = port.endpoint.now_ns().saturating_add(d.as_nanos() as u64);
        loop {
            let left = deadline.saturating_sub(port.endpoint.now_ns());
            if left == 0 || !port.read(Duration::from_nanos(left)) {
                return !port.closed;
            }
        }
    }

    fn write(&self, write: BbWriteMsg) -> Result<(), WriteError> {
        let mut port = self.port.lock();
        let request_id = port.send(self.target, |request_id| Msg::BbWrite { request_id, write });
        match port.replies(&[request_id]).pop_first() {
            Some((_, Msg::BbWriteReply { outcome, .. })) => crate::core::outcome_to_result(outcome),
            _ => Err(WriteError::Unavailable),
        }
    }
}

/// The most a replica holds unanswered from [`RemoteBb::write_all`]: a TCP
/// client connection's write cap, which sheds a connection only when a
/// frame is queued behind more than the cap.
const WINDOW_BYTES: usize = 1 << 20;

/// What a write counts against [`WINDOW_BYTES`]: at least its encoded
/// size, from 28 bytes a vote-set entry, 32 a scalar and 4 a row count.
fn window_cost(write: &BbWriteMsg) -> usize {
    let rows = |rows: Vec<usize>, scalars: usize| {
        128 + rows.iter().map(|n| 4 + 32 * scalars * n).sum::<usize>()
    };
    256 + match write {
        BbWriteMsg::VoteSet { set, .. } => 28 * set.entries.len(),
        BbWriteMsg::MskShare { .. } => 0,
        BbWriteMsg::TrusteePost { post, .. } => {
            let opened = post
                .openings
                .iter()
                .map(|o| rows(o.rows.iter().map(Vec::len).collect(), 2));
            let proved = post.zk.iter().map(|z| {
                rows(z.rows.iter().map(Vec::len).collect(), 4) + 32 * z.sum_responses.len()
            });
            64 * post.tally.per_option.len() + opened.chain(proved).sum::<usize>()
        }
    }
}

impl BbApi for RemoteBb {
    fn read(&self) -> Option<BbSnapshot> {
        crate::codec::decode_snapshot(&self.start_read().wait()?).ok()
    }

    fn start_read(&self) -> PendingRead<'_> {
        let request_id = self
            .port
            .lock()
            .send(self.target, |request_id| Msg::BbReadRequest { request_id });
        PendingRead(Pending::Requested {
            port: &self.port,
            request_id,
        })
    }

    fn submit_vote_set(
        &self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.write(BbWriteMsg::VoteSet {
            from_vc,
            set: set.clone(),
            sig: *sig,
        })
    }

    fn submit_msk_share(&self, share: &SignedShare) -> Result<(), WriteError> {
        self.write(BbWriteMsg::MskShare { share: *share })
    }

    fn submit_trustee_post(
        &self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.write(BbWriteMsg::TrusteePost { post, sig: *sig })
    }
}

/// A read client holding the URLs (here: handles) of all BB nodes.
#[derive(Clone)]
pub struct MajorityReader {
    nodes: Vec<Arc<dyn BbApi>>,
    clock: GlobalClock,
}

impl MajorityReader {
    /// Creates a reader over any mix of replicas (an election hands in
    /// its [`RemoteBb`] clients; retries are paced by a real-time clock).
    pub fn over(nodes: Vec<Arc<dyn BbApi>>) -> MajorityReader {
        MajorityReader {
            nodes,
            clock: GlobalClock::new(),
        }
    }

    /// A reader over [`RemoteBb::replicas`] of `endpoint`: the whole board
    /// through one client endpoint.
    pub fn remote(endpoint: DynEndpoint, num_bb: usize) -> MajorityReader {
        Self::over_remote(&RemoteBb::replicas(endpoint, num_bb))
    }

    /// A reader over `replicas`.
    pub fn over_remote(replicas: &[Arc<RemoteBb>]) -> MajorityReader {
        MajorityReader::over(
            replicas
                .iter()
                .map(|bb| bb.clone() as Arc<dyn BbApi>)
                .collect(),
        )
    }

    /// Paces retry waits (and the retry timeout) by `clock` instead of
    /// wall time — under a virtual clock, polling costs no wall time and
    /// the timeout is measured in virtual milliseconds.
    #[must_use]
    pub fn with_clock(mut self, clock: GlobalClock) -> MajorityReader {
        self.clock = clock;
        self
    }

    /// The number of identical replies a read requires (`fb + 1`, with
    /// `fb = ⌊(Nb−1)/2⌋`).
    pub fn required_majority(&self) -> usize {
        (self.nodes.len() - 1) / 2 + 1
    }

    /// Reads all nodes, every read in flight at once, and compares the
    /// answers in binary form, as the paper's reader does: returns the
    /// snapshot a majority encoded byte for byte, if one exists (readers
    /// retry on transient divergence, per §III-G). Unreachable replicas
    /// count as divergent. The read ends as soon as a majority agrees:
    /// the replies still outstanding are given up on, so a silent replica
    /// within `fb` costs no wait.
    pub fn read_snapshot(&self) -> Option<BbSnapshot> {
        let need = self.required_majority();
        let mut answers: Vec<Arc<Vec<u8>>> = Vec::new();
        let mut requested: Vec<(&Mutex<Port>, u64)> = Vec::new();
        for read in self.nodes.iter().map(|node| node.start_read()) {
            match read.0 {
                Pending::Answered(answer) => answers.extend(answer),
                Pending::Requested { port, request_id } => requested.push((port, request_id)),
            }
        }
        // The requests on one endpoint are awaited together.
        while let Some(&(port, _)) = requested.first() {
            let (shared, rest): (Vec<_>, Vec<_>) = requested
                .into_iter()
                .partition(|(other, _)| std::ptr::eq(*other, port));
            requested = rest;
            let ids: Vec<u64> = shared.iter().map(|(_, id)| *id).collect();
            let replies = port.lock().replies_until(&ids, |replies| {
                let all = answers
                    .iter()
                    .chain(replies.values().filter_map(snapshot_of));
                agreed(all, need).is_some()
            });
            answers.extend(replies.values().filter_map(snapshot_of).cloned());
        }
        crate::codec::decode_snapshot(agreed(answers.iter(), need)?).ok()
    }

    /// Reads with retries, paced by [`retry_pause`], until a
    /// majority-backed snapshot satisfying `pred` appears or `timeout`
    /// elapses (both measured on the reader's clock: wall time by default,
    /// virtual time under [`MajorityReader::with_clock`]).
    pub fn read_until<F>(&self, timeout: std::time::Duration, pred: F) -> Option<BbSnapshot>
    where
        F: Fn(&BbSnapshot) -> bool,
    {
        let start_ns = self.clock.now_ns();
        let timeout_ns = timeout.as_nanos() as u64;
        loop {
            if let Some(snap) = self.read_snapshot() {
                if pred(&snap) {
                    return Some(snap);
                }
            }
            let waited_ns = self.clock.now_ns().saturating_sub(start_ns);
            if waited_ns > timeout_ns {
                return None;
            }
            self.clock
                .sleep(retry_pause(Duration::from_nanos(waited_ns)));
        }
    }

    /// The underlying replica clients (for writers that must contact
    /// every node).
    pub fn nodes(&self) -> &[Arc<dyn BbApi>] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::field::Scalar;
    use ddemos_crypto::schnorr::SigningKey;
    use ddemos_crypto::shamir::Share;
    use ddemos_crypto::votecode::VoteCode;
    use ddemos_protocol::codec::encode_envelope_frame;
    use ddemos_protocol::messages::Envelope;
    use ddemos_protocol::posts::{PartOpeningPost, PartZkPost, TallySharePost};
    use ddemos_protocol::{PartId, SerialNo};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every kind of write costs at least its envelope frame plus 64
    /// bytes of channel framing, so a run within the window never queues
    /// more than the window.
    #[test]
    fn window_cost_bounds_the_frame_a_write_travels_in() {
        let sig = SigningKey::generate(&mut StdRng::seed_from_u64(5)).sign(b"window");
        let x = Scalar::from_u64(7);
        let opening = PartOpeningPost {
            serial: SerialNo(1),
            part: PartId::A,
            rows: vec![vec![(x, x); 3], Vec::new(), vec![(x, x); 3]],
        };
        let zk = PartZkPost {
            serial: SerialNo(2),
            part: PartId::B,
            rows: vec![vec![[x; 4]; 3], Vec::new(), vec![[x; 4]; 3]],
            sum_responses: vec![x; 3],
        };
        let post = TrusteePost {
            trustee_index: 4,
            openings: vec![opening; 20],
            zk: vec![zk; 20],
            tally: TallySharePost {
                per_option: vec![(x, x); 3],
            },
        };
        let set = VoteSet {
            entries: (0..50).map(|s| (SerialNo(s), VoteCode([9; 20]))).collect(),
        };
        let writes = [
            BbWriteMsg::VoteSet {
                from_vc: 3,
                set,
                sig,
            },
            BbWriteMsg::MskShare {
                share: SignedShare {
                    share: Share { index: 3, value: x },
                    signature: sig,
                },
            },
            BbWriteMsg::TrusteePost {
                post: Arc::new(post),
                sig,
            },
        ];
        for write in writes {
            let cost = window_cost(&write);
            let frame = encode_envelope_frame(&Envelope {
                from: NodeId::client(u32::MAX),
                to: NodeId::bb(u32::MAX),
                msg: Msg::BbWrite {
                    request_id: u64::MAX,
                    write,
                },
            });
            assert!(
                frame.len() + 64 <= cost,
                "{} bytes cost {cost}",
                frame.len()
            );
        }
    }

    /// A stand-in replica on `net`: answers each request after `delay`,
    /// reads with `[index]` and writes as `outcome(index of the writer)`.
    fn stand_in(
        net: &ddemos_net::SimNet,
        index: u32,
        delay: Duration,
        outcome: fn(u32) -> BbWriteOutcome,
    ) -> std::thread::JoinHandle<()> {
        let endpoint = net.register(NodeId::bb(index));
        std::thread::spawn(move || {
            while let Ok(env) = endpoint.recv() {
                std::thread::sleep(delay);
                let reply = match env.msg {
                    Msg::BbReadRequest { request_id } => Msg::BbReadResponse {
                        request_id,
                        snapshot: Arc::new(vec![index as u8]),
                    },
                    Msg::BbWrite {
                        request_id,
                        write: BbWriteMsg::VoteSet { from_vc, .. },
                    } => Msg::BbWriteReply {
                        request_id,
                        outcome: outcome(from_vc),
                    },
                    _ => continue,
                };
                endpoint.send(env.from, reply);
            }
        })
    }

    /// Replica 1 answers first: the wait for replica 0 reads that reply,
    /// and parks it for replica 1's read instead of dropping it.
    #[test]
    fn a_reply_for_another_client_of_the_endpoint_is_kept_for_it() {
        let net = ddemos_net::SimNet::new(ddemos_net::NetworkProfile::instant(), 1);
        let accept = |_| BbWriteOutcome::Accepted;
        let slow = stand_in(&net, 0, Duration::from_millis(50), accept);
        let fast = stand_in(&net, 1, Duration::ZERO, accept);
        let clients = RemoteBb::replicas(Box::new(net.register(NodeId::client(1))), 2);
        let reads: Vec<PendingRead<'_>> = clients.iter().map(|bb| bb.start_read()).collect();
        let answers: Vec<_> = reads.into_iter().map(PendingRead::wait).collect();
        assert_eq!(answers, [Some(Arc::new(vec![0])), Some(Arc::new(vec![1]))]);
        net.shutdown();
        slow.join().expect("replica 0");
        fast.join().expect("replica 1");
    }

    /// A stand-in replica on `net` that answers every read with
    /// `snapshot`, or, given none, never answers.
    fn read_stand_in(
        net: &ddemos_net::SimNet,
        index: u32,
        snapshot: Option<Arc<Vec<u8>>>,
    ) -> std::thread::JoinHandle<()> {
        let endpoint = net.register(NodeId::bb(index));
        std::thread::spawn(move || {
            while let Ok(env) = endpoint.recv() {
                if let (Msg::BbReadRequest { request_id }, Some(snapshot)) = (env.msg, &snapshot) {
                    let reply = Msg::BbReadResponse {
                        request_id,
                        snapshot: snapshot.clone(),
                    };
                    endpoint.send(env.from, reply);
                }
            }
        })
    }

    /// One replica of three is silent, which `fb = 1` allows: a read ends
    /// once the other two agree, not when the silent one's request times
    /// out, and the reply it gave up on is not kept.
    #[test]
    fn a_majority_read_does_not_wait_for_a_silent_replica() {
        let net = ddemos_net::SimNet::new(ddemos_net::NetworkProfile::instant(), 3);
        let snapshot = Arc::new(crate::codec::encode_snapshot(&BbSnapshot::default()));
        let replicas = [
            read_stand_in(&net, 0, None),
            read_stand_in(&net, 1, Some(snapshot.clone())),
            read_stand_in(&net, 2, Some(snapshot.clone())),
        ];
        let clients = RemoteBb::replicas(Box::new(net.register(NodeId::client(1))), 3);
        let reader = MajorityReader::over_remote(&clients);
        let started = std::time::Instant::now();
        let read = reader.read_snapshot().expect("two of three agree");
        let took = started.elapsed();
        assert_eq!(crate::codec::encode_snapshot(&read), *snapshot);
        assert!(took < Duration::from_secs(1), "the read took {took:?}");
        let port = clients[0].port.lock();
        assert!(port.outstanding.is_empty() && port.parked.is_empty());
        drop(port);
        net.shutdown();
        for replica in replicas {
            replica.join().expect("replica");
        }
    }

    /// Each write reports how many replicas accepted it.
    #[test]
    fn write_all_counts_the_replicas_that_accept_each_write() {
        let net = ddemos_net::SimNet::new(ddemos_net::NetworkProfile::instant(), 2);
        let replicas = [
            stand_in(&net, 0, Duration::ZERO, |_| BbWriteOutcome::Accepted),
            stand_in(&net, 1, Duration::ZERO, |vc| match vc {
                0 => BbWriteOutcome::Accepted,
                _ => BbWriteOutcome::BadSignature,
            }),
        ];
        let clients = RemoteBb::replicas(Box::new(net.register(NodeId::client(1))), 2);
        let sig = SigningKey::generate(&mut StdRng::seed_from_u64(5)).sign(b"unchecked");
        let writes: Vec<BbWriteMsg> = (0..3)
            .map(|from_vc| BbWriteMsg::VoteSet {
                from_vc,
                set: VoteSet::default(),
                sig,
            })
            .collect();
        assert_eq!(RemoteBb::write_all(&clients, &writes), [2, 1, 1]);
        net.shutdown();
        for replica in replicas {
            replica.join().expect("replica");
        }
    }
}
