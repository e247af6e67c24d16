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
//! on any transport. An unreachable replica answers `None`/`Unavailable`
//! and is outvoted like any other divergent node.

use crate::core::WriteError;
use crate::node::BbNode;
use crate::BbSnapshot;
use ddemos_crypto::schnorr::Signature;
use ddemos_crypto::vss::SignedShare;
use ddemos_net::DynEndpoint;
use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::messages::{BbWriteMsg, Msg};
use ddemos_protocol::posts::{TrusteePost, VoteSet};
use ddemos_protocol::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long [`MajorityReader::read_until`] pauses between retries.
const RETRY_INTERVAL: std::time::Duration = std::time::Duration::from_millis(2);

/// One Bulletin Board replica, wherever it lives: a [`BbNode`] in hand
/// or a [`RemoteBb`] across a transport. Reads return `None` when the
/// replica is unreachable; writes report [`WriteError::Unavailable`].
pub trait BbApi: Send + Sync {
    /// Public read of the replica's snapshot.
    fn read(&self) -> Option<BbSnapshot>;

    /// Starts a read and returns the wait for the snapshot's canonical
    /// encoding ([`crate::codec`]), so a reader can have a read in flight at
    /// every replica and compare the answers byte for byte.
    fn start_read(&self) -> PendingRead<'_> {
        let encoded = self
            .read()
            .map(|snapshot| Arc::new(crate::codec::encode_snapshot(&snapshot)));
        Box::new(move || encoded)
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
        Box::new(move || Some(encoded))
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

/// The rest of a read begun with [`BbApi::start_read`].
pub type PendingRead<'a> = Box<dyn FnOnce() -> Option<Arc<Vec<u8>>> + 'a>;

/// How long a [`RemoteBb`] waits, in its endpoint's time base, for a
/// reply before it counts the replica unreachable.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// A [`BbApi`] client for one replica: request/response envelopes with
/// correlation ids over an endpoint of its own. Waits run on the
/// endpoint's clock, so under virtual time a timeout costs no wall time.
pub struct RemoteBb {
    endpoint: Mutex<DynEndpoint>,
    target: NodeId,
    next_request: AtomicU64,
}

impl RemoteBb {
    /// Wraps an endpoint that speaks to the replica `target`.
    pub fn new(endpoint: DynEndpoint, target: NodeId) -> RemoteBb {
        RemoteBb {
            endpoint: Mutex::new(endpoint),
            target,
            next_request: AtomicU64::new(1),
        }
    }

    /// Submits `writes`, in order, to every replica in runs costing at most
    /// [`WINDOW_BYTES`] (or one costlier write alone), and waits for the
    /// replies. A run goes to every replica before any reply is awaited, so
    /// the replicas verify in parallel on either clock, and a replica gets
    /// the next run once it has answered (or timed out on) the last.
    pub fn write_all(replicas: &[Arc<RemoteBb>], writes: &[BbWriteMsg]) {
        let endpoints: Vec<_> = replicas.iter().map(|bb| bb.endpoint.lock()).collect();
        let mut sent: Vec<Vec<u64>> = vec![Vec::new(); replicas.len()];
        let mut bytes = writes.first().map_or(0, window_cost);
        let runs = writes.chunk_by(|_, next| {
            let fits = bytes + window_cost(next) <= WINDOW_BYTES;
            bytes = window_cost(next) + if fits { bytes } else { 0 };
            fits
        });
        for run in runs {
            for ((bb, endpoint), ids) in replicas.iter().zip(&endpoints).zip(&mut sent) {
                Self::replies(endpoint, ids);
                *ids = run
                    .iter()
                    .map(|write| {
                        bb.send(endpoint, |request_id| Msg::BbWrite {
                            request_id,
                            write: write.clone(),
                        })
                    })
                    .collect();
            }
        }
        for (endpoint, ids) in endpoints.iter().zip(&sent) {
            Self::replies(endpoint, ids);
        }
    }

    fn send(&self, endpoint: &DynEndpoint, make: impl FnOnce(u64) -> Msg) -> u64 {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        endpoint.send(self.target, make(request_id));
        request_id
    }

    /// Collects the replies to `ids`, in whatever order they come, until
    /// each has one or [`REQUEST_TIMEOUT`] passes without a new one.
    /// Replies to other ids (requests that timed out earlier) are
    /// discarded.
    fn replies(endpoint: &DynEndpoint, ids: &[u64]) -> BTreeMap<u64, Msg> {
        let timeout_ns = REQUEST_TIMEOUT.as_nanos() as u64;
        let mut replies = BTreeMap::new();
        let mut deadline = endpoint.now_ns() + timeout_ns;
        while replies.len() < ids.len() {
            let left = deadline.saturating_sub(endpoint.now_ns());
            let Ok(env) = endpoint.recv_timeout(Duration::from_nanos(left)) else {
                break;
            };
            let (Msg::BbWriteReply { request_id, .. } | Msg::BbReadResponse { request_id, .. }) =
                env.msg
            else {
                continue;
            };
            if ids.contains(&request_id) {
                replies.insert(request_id, env.msg);
                deadline = endpoint.now_ns() + timeout_ns;
            }
        }
        replies
    }

    fn write(&self, write: BbWriteMsg) -> Result<(), WriteError> {
        let endpoint = self.endpoint.lock();
        let request_id = self.send(&endpoint, |request_id| Msg::BbWrite { request_id, write });
        match Self::replies(&endpoint, &[request_id]).pop_first() {
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
        crate::codec::decode_snapshot(&self.start_read()()?).ok()
    }

    fn start_read(&self) -> PendingRead<'_> {
        let endpoint = self.endpoint.lock();
        let request_id = self.send(&endpoint, |request_id| Msg::BbReadRequest { request_id });
        Box::new(
            move || match Self::replies(&endpoint, &[request_id]).pop_first() {
                Some((_, Msg::BbReadResponse { snapshot, .. })) => Some(snapshot),
                _ => None,
            },
        )
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
    /// count as divergent.
    pub fn read_snapshot(&self) -> Option<BbSnapshot> {
        let pending: Vec<PendingRead<'_>> =
            self.nodes.iter().map(|node| node.start_read()).collect();
        let replies: Vec<Arc<Vec<u8>>> = pending.into_iter().filter_map(|read| read()).collect();
        let agreed = replies.iter().find(|reply| {
            replies.iter().filter(|other| other == reply).count() >= self.required_majority()
        })?;
        crate::codec::decode_snapshot(agreed).ok()
    }

    /// Reads with retries until a majority-backed snapshot satisfying
    /// `pred` appears or `timeout` elapses (both measured on the reader's
    /// clock: wall time by default, virtual time under
    /// [`MajorityReader::with_clock`]).
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
            if self.clock.now_ns().saturating_sub(start_ns) > timeout_ns {
                return None;
            }
            self.clock.sleep(RETRY_INTERVAL);
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
            opening_sig: sig,
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
}
