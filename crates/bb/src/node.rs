//! A Bulletin Board node (§III-G): the [`BbCore`] state machine behind a
//! lock and an optional durable journal.
//!
//! BB nodes are deliberately simple: isolated repositories that never talk
//! to each other. Reads are public; writes are authenticated and verified —
//! vote sets against the `fv+1` identical-copy threshold, `msk` shares
//! against the EA's signatures and `H_msk`, trustee posts against trustee
//! keys, EA opening-bundle signatures, and reconstruct-then-verify for the
//! distributed ZK responses and the tally opening. The robustness of the
//! subsystem comes entirely from this write-side verification plus
//! read-side majority (see [`crate::reader`]).
//!
//! All of that verification lives in the sans-I/O [`crate::core`] module;
//! this wrapper executes the core's outputs: journal appends + commits
//! before the reply is released, so an acknowledged write is durable.
//! The same core also serves multi-process deployments, where
//! `ddemos_harness::tcp` drives a `BbNode` from `Msg::BbWrite` /
//! `Msg::BbReadRequest` envelopes ([`BbNode::handle_write`]).

use crate::core::{BbCore, BbInput, BbOutput, BbRecord, BbSnapshot, WriteError};
use ddemos_crypto::schnorr::Signature;
use ddemos_crypto::vss::SignedShare;
use ddemos_obs::Recorder;
use ddemos_protocol::initdata::BbInit;
use ddemos_protocol::messages::{BbWriteMsg, BbWriteOutcome};
use ddemos_protocol::posts::{TrusteePost, VoteSet};
use ddemos_protocol::wire::{Reader, WireError, Writer};
use ddemos_storage::{Durable, DynJournal, RecoveryStats, StorageError};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One Bulletin Board node.
pub struct BbNode {
    /// Retained outside the lock so [`BbNode::init_data`] can hand out a
    /// reference (the heavy ballot payload is shared by `Arc`).
    init: BbInit,
    core: RwLock<BbCore>,
    /// Durable journal (`None` = volatile node). Every accepted write is
    /// logged; [`BbNode::recover_amnesia`] rebuilds the node by replaying
    /// the log through the same verified write path.
    journal: Mutex<Option<DynJournal>>,
    /// Journal device reported full: the replica is read-only and
    /// refuses writes with [`WriteError::ReadOnly`] instead of
    /// acknowledging them non-durably. Reads keep serving everything
    /// already accepted.
    degraded: AtomicBool,
    /// Byzantine divergence trigger: once the replica has accepted a
    /// finalized vote set, its *reads* deny it ever did (serving a
    /// pre-finalization snapshot). The read-side `fb+1` majority must
    /// outvote such a replica.
    diverge_after_finalized: AtomicBool,
    /// Metrics recorder (disabled by default): per-write-kind step
    /// latency and counts, journal timing included.
    recorder: Mutex<Recorder>,
}

impl BbNode {
    /// Creates a node from its initialization data (which it publishes
    /// immediately, per §III-D).
    pub fn new(init: BbInit) -> BbNode {
        BbNode {
            core: RwLock::new(BbCore::new(init.clone())),
            init,
            journal: Mutex::new(None),
            degraded: AtomicBool::new(false),
            diverge_after_finalized: AtomicBool::new(false),
            recorder: Mutex::new(Recorder::disabled()),
        }
    }

    /// Attaches a metrics recorder; every accepted or rejected write is
    /// charged to `bb.step_ns` under its input kind.
    pub fn set_recorder(&self, recorder: Recorder) {
        *self.recorder.lock() = recorder;
    }

    /// Attaches a durable journal: every accepted write is logged and
    /// committed, and [`BbNode::recover_amnesia`] can rebuild the node
    /// after a power cycle. A journal already holding state is replayed
    /// immediately.
    ///
    /// # Errors
    /// [`StorageError`] when the existing journal fails to replay.
    pub fn attach_journal(&self, mut journal: DynJournal) -> Result<RecoveryStats, StorageError> {
        let stats = journal.recover(&mut BbReplica(self))?;
        *self.journal.lock() = Some(journal);
        Ok(stats)
    }

    /// Whether a journal is attached.
    pub fn is_durable(&self) -> bool {
        self.journal.lock().is_some()
    }

    /// The published initialization data (public).
    pub fn init_data(&self) -> &BbInit {
        &self.init
    }

    /// Whether the replica is in read-only degraded mode (journal
    /// device full).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Arms the state-triggered Byzantine divergence: after the first
    /// finalized vote set is accepted, this replica's reads pretend the
    /// finalization never happened. Until that trigger state is reached
    /// the replica is indistinguishable from an honest one — the
    /// adaptive-adversary shape the campaign fuzzer exercises against
    /// [`crate::MajorityReader`].
    pub fn set_diverge_after_finalized(&self, diverge: bool) {
        self.diverge_after_finalized
            .store(diverge, Ordering::Release);
    }

    /// Public read: the node's current snapshot.
    pub fn read(&self) -> BbSnapshot {
        let snapshot = self.core.read().snapshot().clone();
        if self.diverge_after_finalized.load(Ordering::Acquire) && snapshot.vote_set.is_some() {
            // The armed divergence: deny the finalized state, serving
            // the empty pre-election snapshot. Every diverging reply is
            // identical, so the lie is as self-consistent as a Byzantine
            // replica can make it.
            return BbSnapshot::default();
        }
        snapshot
    }

    /// Power-cycles the node: all volatile state is dropped (unsynced
    /// journal bytes included) and the accepted-write history is replayed
    /// from snapshot + WAL through the same verified write path, so the
    /// rebuilt state is exactly what the writes produce. Without a
    /// journal this is a plain amnesia crash: the node comes back empty,
    /// and the read-side `fb+1` majority carries the subsystem.
    pub fn recover_amnesia(&self) {
        // A restart re-probes the device: if it is still full, the first
        // journaled write re-enters degraded mode.
        self.degraded.store(false, Ordering::Release);
        *self.core.write() = BbCore::new(self.init.clone());
        let mut guard = self.journal.lock();
        if let Some(journal) = guard.as_mut() {
            if journal.crash(0).is_err() {
                self.journal_fault("crash");
            }
            if journal.recover(&mut BbReplica(self)).is_err() {
                // The WAL truncated itself at the offending record; the
                // replica continues from the applied clean prefix.
                self.journal_fault("replay");
            }
        }
    }

    /// Counts a journal failure the node absorbed, by kind: the replica
    /// keeps serving, and this is how anyone learns.
    fn journal_fault(&self, kind: &'static str) {
        self.recorder.lock().add("bb.journal_faults", kind, 1);
    }

    /// Runs one write through the core and executes its outputs: journal
    /// append + commit (+ snapshot cadence) before the reply is released.
    fn submit(&self, input: BbInput) -> Result<(), WriteError> {
        if self.degraded.load(Ordering::Acquire) {
            return Err(WriteError::ReadOnly);
        }
        let recorder = self.recorder.lock().clone();
        let kind = input.kind();
        let start = recorder.now_ns();
        let outputs = self.core.write().step(input);
        let mut outcome = Ok(());
        for output in outputs {
            match output {
                BbOutput::Journal(bytes) => {
                    let mut guard = self.journal.lock();
                    if let Some(journal) = guard.as_mut() {
                        let append = journal.append(&bytes).and_then(|()| {
                            journal.commit()?;
                            journal.maybe_compact(&BbReplica(self))?;
                            Ok(())
                        });
                        if let Err(e) = append {
                            if e.is_disk_full() {
                                // Nothing was written (the WAL frame
                                // counter did not advance). Refuse the
                                // write instead of acknowledging it
                                // non-durably, and stay read-only: the
                                // journal on disk is intact for replay.
                                self.journal_fault("disk_full");
                                self.degraded.store(true, Ordering::Release);
                                return Err(WriteError::ReadOnly);
                            }
                            // Any other failure: the write stands, held
                            // volatile.
                            self.journal_fault("write");
                        }
                    }
                }
                // Commits are folded into the append above (BB writes are
                // rare and each one is an externally visible acceptance).
                BbOutput::Commit => {}
                BbOutput::Reply(result) => outcome = result,
            }
        }
        recorder.add("bb.step_writes", kind, 1);
        recorder.observe_since("bb.step_ns", kind, start);
        outcome
    }

    /// A VC node submits its final vote set (authenticated write).
    ///
    /// # Errors
    /// Rejects unknown writers and bad signatures; accepts duplicates
    /// idempotently.
    pub fn submit_vote_set(
        &self,
        from_vc: u32,
        set: &VoteSet,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.submit(BbInput::VoteSet {
            from_vc,
            set: set.clone(),
            sig: *sig,
        })
    }

    /// A VC node submits its `msk` share (authenticated by the EA's
    /// signature on the share itself).
    ///
    /// # Errors
    /// Rejects shares whose EA signature fails.
    pub fn submit_msk_share(&self, share: &SignedShare) -> Result<(), WriteError> {
        self.submit(BbInput::MskShare { share: *share })
    }

    /// A trustee submits its post (authenticated write).
    ///
    /// # Errors
    /// Rejects unknown trustees, bad signatures, and posts whose EA-signed
    /// opening bundles fail verification.
    pub fn submit_trustee_post(
        &self,
        post: Arc<TrusteePost>,
        sig: &Signature,
    ) -> Result<(), WriteError> {
        self.submit(BbInput::TrusteePost { post, sig: *sig })
    }

    /// Handles one relayed write envelope (the multi-process replica
    /// loop), returning the wire outcome code.
    pub fn handle_write(&self, write: BbWriteMsg) -> BbWriteOutcome {
        crate::core::result_to_outcome(self.submit(BbInput::from(write)))
    }
}

/// [`Durable`] adapter for a [`BbNode`]: the durable state *is* the
/// accepted-write history, retained in exact acceptance order. A
/// snapshot re-encodes that history verbatim, and both snapshot restore
/// and WAL replay re-apply the writes through the same verified write
/// path — same order, same quorum crossings, same phase gates — so the
/// rebuilt node is byte-identical to one that never crashed.
struct BbReplica<'a>(&'a BbNode);

impl Durable for BbReplica<'_> {
    fn encode_snapshot(&self, w: &mut Writer) {
        self.0.core.read().encode_history(w);
    }

    fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let _tag = r.get_bytes()?; // writer domain tag
        let n = r.get_u64()?;
        let mut core = self.0.core.write();
        for _ in 0..n {
            let record = BbRecord::decode(r)?;
            if !core.replay(record) {
                self.0.journal_fault("replay_rejected");
            }
        }
        Ok(())
    }

    fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError> {
        let record = BbRecord::decode(&mut Reader::new(record))?;
        if !self.0.core.write().replay(record) {
            self.0.journal_fault("replay_rejected");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_ea::{ElectionAuthority, SetupProfile};
    use ddemos_protocol::clock::GlobalClock;
    use ddemos_protocol::initdata::voteset_message;
    use ddemos_protocol::ElectionParams;
    use ddemos_storage::{DiskProfile, Journal, JournalConfig, SimDisk};

    #[test]
    fn a_full_journal_device_makes_the_replica_read_only() {
        let params = ElectionParams::new("bb-node", 2, 2, 4, 3, 5, 3, 0, 1000).unwrap();
        let out = ElectionAuthority::new(params, 31).setup(SetupProfile::Full);
        let disk = Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant()));
        let bb = BbNode::new(out.bb_init.clone());
        let recorder = Recorder::wall();
        bb.set_recorder(recorder.clone());
        bb.attach_journal(Journal::new(disk.clone(), JournalConfig::default()))
            .unwrap();
        disk.set_full(true);

        let set = VoteSet::default();
        let msg = voteset_message(&out.params.election_id, &set.digest());
        for vc in 0..2 {
            let sig = out.vc_inits[vc].signing_key.sign(&msg);
            assert_eq!(
                bb.submit_vote_set(vc as u32, &set, &sig),
                Err(WriteError::ReadOnly)
            );
            assert!(bb.is_degraded());
        }
        let faults = recorder.snapshot();
        assert_eq!(
            faults.counter("bb.journal_faults", None, Some("disk_full")),
            1,
            "a degraded replica refuses before touching the journal"
        );
        assert_eq!(faults.counter("bb.journal_faults", None, None), 1);
    }
}
