//! Snapshot + WAL recovery for durable state machines.
//!
//! A [`Journal`] pairs a [`Wal`] with the disk's snapshot region and a
//! compaction policy: records append to the WAL (group-committed); every
//! `compact_every` records the machine's full state is written as a new
//! snapshot and the log is reset. Recovery is always *snapshot, then
//! replay*: [`Journal::recover`] restores the latest snapshot (if any)
//! and re-applies every whole WAL frame, truncating a torn tail.

use crate::disk::{Disk, StorageError};
use crate::wal::{ReplaySummary, Wal, WalConfig};
use ddemos_protocol::wire::{Reader, WireError, Writer};

/// A state machine whose state survives crashes through a [`Journal`]:
/// full-state snapshots plus incremental WAL records, both over the
/// canonical `wire.rs` codec.
pub trait Durable {
    /// Encodes the machine's full durable state (one snapshot blob).
    fn encode_snapshot(&self, w: &mut Writer);

    /// Restores the machine from a snapshot blob. The machine must be in
    /// its freshly-initialized state when called.
    ///
    /// # Errors
    /// [`WireError`] on a corrupt blob (recovery then fails — a snapshot
    /// is written atomically, so corruption means real damage).
    fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), WireError>;

    /// Re-applies one WAL record on top of the restored snapshot.
    ///
    /// # Errors
    /// [`WireError`] on a corrupt record.
    fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError>;
}

/// Journal tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// WAL group-commit window (frames per fsync).
    pub group_commit: usize,
    /// Snapshot cadence: compact after this many records since the last
    /// snapshot. `None` disables automatic compaction.
    pub compact_every: Option<u64>,
    /// No effect. It used to let the VC driver skip a commit barrier no
    /// send followed; the core no longer emits such barriers (DESIGN.md
    /// §6.5). Kept because the frozen `ddbench/` sets and reads it; the
    /// next `benchmark` PR removes it.
    pub adaptive_commit: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            group_commit: 32,
            compact_every: Some(4096),
            adaptive_commit: false,
        }
    }
}

/// What [`Journal::recover`] reconstructed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Whether a snapshot was restored.
    pub from_snapshot: bool,
    /// WAL records replayed on top of it.
    pub replayed: u64,
    /// Torn-tail bytes discarded.
    pub torn_bytes: u64,
}

/// A durable state machine's persistence handle.
pub struct Journal<D: Disk> {
    wal: Wal<D>,
    config: JournalConfig,
    since_snapshot: u64,
}

impl<D: Disk> Journal<D> {
    /// Wraps a disk. Call [`Journal::recover`] before appending.
    pub fn new(disk: D, config: JournalConfig) -> Journal<D> {
        Journal {
            wal: Wal::new(
                disk,
                WalConfig {
                    group_commit: config.group_commit,
                },
            ),
            config,
            since_snapshot: 0,
        }
    }

    /// The underlying disk.
    pub fn disk(&self) -> &D {
        self.wal.disk()
    }

    /// Attaches a metrics recorder to the underlying WAL (batch
    /// occupancy, fsync latency, bytes appended).
    pub fn set_recorder(&mut self, recorder: ddemos_obs::Recorder) {
        self.wal.set_recorder(recorder);
    }

    /// Restores `machine` from snapshot + WAL replay, repairing any torn
    /// tail. The machine must be freshly initialized.
    ///
    /// # Errors
    /// Disk failures, or [`StorageError::Corrupt`] when the snapshot or a
    /// whole-frame record fails to decode.
    pub fn recover<M: Durable>(&mut self, machine: &mut M) -> Result<RecoveryStats, StorageError> {
        let mut stats = RecoveryStats::default();
        if let Some(snapshot) = self.disk().read_snapshot()? {
            machine
                .restore_snapshot(&mut Reader::new(&snapshot))
                .map_err(|_| StorageError::Corrupt("snapshot"))?;
            stats.from_snapshot = true;
        }
        let ReplaySummary { frames, torn_bytes } = self.wal.replay(|record| {
            machine
                .apply_record(record)
                .map_err(|_| StorageError::Corrupt("wal record"))
        })?;
        stats.replayed = frames;
        stats.torn_bytes = torn_bytes;
        self.since_snapshot = frames;
        Ok(stats)
    }

    /// Appends one record (group-committed; not yet durable unless the
    /// commit window filled).
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure; [`StorageError::DiskFull`]
    /// when the device has no room (nothing was written — callers should
    /// degrade to read-only rather than discard the journal).
    pub fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.wal.append(record)?;
        self.since_snapshot += 1;
        Ok(())
    }

    /// Forces the group commit — called before any externally visible
    /// action that depends on the appended records (sending a signed
    /// endorsement, multicasting a share).
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        self.wal.commit()
    }

    /// Records appended since the last snapshot.
    pub fn since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// The configured [`JournalConfig::adaptive_commit`] (no effect; read
    /// only by the frozen `ddbench/`).
    pub fn adaptive_commit(&self) -> bool {
        self.config.adaptive_commit
    }

    /// Writes a fresh snapshot of `machine` and resets the log.
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure.
    pub fn compact<M: Durable>(&mut self, machine: &M) -> Result<(), StorageError> {
        // Commit first: the snapshot must not get ahead of a WAL tail that
        // could still be lost (snapshot writes are atomic, appends not).
        self.wal.commit()?;
        let mut w = Writer::tagged("ddemos/journal-snapshot/v1");
        machine.encode_snapshot(&mut w);
        self.disk().write_snapshot(w.bytes())?;
        self.wal.reset()?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Compacts when the snapshot cadence says so. Returns whether a
    /// snapshot was written.
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure.
    pub fn maybe_compact<M: Durable>(&mut self, machine: &M) -> Result<bool, StorageError> {
        match self.config.compact_every {
            Some(every) if self.since_snapshot >= every => {
                self.compact(machine)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Simulates the machine's host losing power: unsynced WAL bytes are
    /// dropped (except `torn_tail_bytes` of partial write) and the
    /// in-memory append state is reset, as if the journal were reopened.
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure.
    pub fn crash(&mut self, torn_tail_bytes: u64) -> Result<(), StorageError> {
        self.disk().crash(torn_tail_bytes)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskProfile, SimDisk};
    use ddemos_protocol::clock::GlobalClock;
    use std::sync::Arc;

    /// A toy durable machine: an append-only list of u64s.
    #[derive(Default, PartialEq, Debug)]
    struct Counter {
        values: Vec<u64>,
    }

    impl Durable for Counter {
        fn encode_snapshot(&self, w: &mut Writer) {
            w.put_u64(self.values.len() as u64);
            for v in &self.values {
                w.put_u64(*v);
            }
        }
        fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
            // Skip the writer's domain tag.
            let _tag = r.get_bytes()?;
            let n = r.get_u64()?;
            for _ in 0..n {
                self.values.push(r.get_u64()?);
            }
            Ok(())
        }
        fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError> {
            self.values.push(Reader::new(record).get_u64()?);
            Ok(())
        }
    }

    fn journal(compact_every: Option<u64>) -> Journal<Arc<SimDisk>> {
        let disk = Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant()));
        Journal::new(
            disk,
            JournalConfig {
                group_commit: 4,
                compact_every,
                adaptive_commit: false,
            },
        )
    }

    fn push(j: &mut Journal<Arc<SimDisk>>, m: &mut Counter, v: u64) {
        m.values.push(v);
        j.append(&v.to_be_bytes()).unwrap();
    }

    #[test]
    fn snapshot_plus_replay_equals_live_state() {
        let mut j = journal(None);
        let mut live = Counter::default();
        for v in 0..10 {
            push(&mut j, &mut live, v);
        }
        j.compact(&live).unwrap();
        for v in 10..17 {
            push(&mut j, &mut live, v);
        }
        j.commit().unwrap();

        let disk = j.disk().clone();
        let mut recovered = Counter::default();
        let mut j2 = Journal::new(disk, JournalConfig::default());
        let stats = j2.recover(&mut recovered).unwrap();
        assert!(stats.from_snapshot);
        assert_eq!(stats.replayed, 7);
        assert_eq!(recovered, live);

        // Byte-identical snapshots from both machines.
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        live.encode_snapshot(&mut wa);
        recovered.encode_snapshot(&mut wb);
        assert_eq!(wa.bytes(), wb.bytes());
    }

    #[test]
    fn crash_loses_only_the_uncommitted_window() {
        let mut j = journal(None);
        let mut live = Counter::default();
        for v in 0..6 {
            push(&mut j, &mut live, v); // group_commit 4: 0..4 synced
        }
        j.crash(0).unwrap();
        let mut recovered = Counter::default();
        let stats = j.recover(&mut recovered).unwrap();
        assert_eq!(stats.replayed, 4);
        assert_eq!(recovered.values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn commit_makes_the_tail_survive() {
        let mut j = journal(None);
        let mut live = Counter::default();
        for v in 0..6 {
            push(&mut j, &mut live, v);
        }
        j.commit().unwrap();
        j.crash(0).unwrap();
        let mut recovered = Counter::default();
        j.recover(&mut recovered).unwrap();
        assert_eq!(recovered, live);
    }

    #[test]
    fn cadence_compacts_automatically() {
        let mut j = journal(Some(5));
        let mut live = Counter::default();
        let mut compactions = 0;
        for v in 0..12 {
            push(&mut j, &mut live, v);
            if j.maybe_compact(&live).unwrap() {
                compactions += 1;
            }
        }
        assert_eq!(compactions, 2);
        assert!(j.since_snapshot() < 5);
        let mut recovered = Counter::default();
        let stats = j.recover(&mut recovered).unwrap();
        assert!(stats.from_snapshot);
        assert_eq!(recovered, live);
    }
}
