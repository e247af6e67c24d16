//! The append-only, checksummed, group-committed write-ahead log.
//!
//! Frame layout (all integers big-endian, matching `wire.rs`):
//!
//! ```text
//! ┌─────────┬─────────┬──────────────┬────────────┐
//! │ magic   │ len     │ crc32(load)  │ payload    │
//! │ u32     │ u32     │ u32          │ len bytes  │
//! └─────────┴─────────┴──────────────┴────────────┘
//! ```
//!
//! Replay decodes frames front to back and stops at the first frame that
//! is truncated, has a bad magic, or fails its checksum — the *torn tail*
//! a crash mid-write leaves — and truncates the log back to the last
//! whole frame, so recovery is always from a clean prefix.
//!
//! **Group commit**: [`Wal::append`] buffers durability; the log is only
//! fsynced when `group_commit` appended frames accumulate or on an
//! explicit [`Wal::commit`] (state machines call it before any externally
//! visible action that depends on the logged state, e.g. sending a
//! signed endorsement).

use crate::disk::{Disk, StorageError};
use ddemos_obs::Recorder;

/// Per-frame magic ("DWAL").
const MAGIC: u32 = 0x4457_414C;
/// Frame header size (magic + len + crc).
pub const FRAME_HEADER: usize = 12;
/// Sanity bound on one frame's payload.
const MAX_FRAME: u32 = 1 << 26; // 64 MiB

/// CRC-32 (IEEE) of a frame payload: the transport codec's kernel.
pub use ddemos_protocol::wire::crc32;

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Encodes one frame (header + payload) into a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Attempts to decode the frame starting at `buf[offset..]`. Returns the
/// payload range and the offset of the next frame, or `None` when the
/// bytes at `offset` are not a whole valid frame (the torn tail).
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<(std::ops::Range<usize>, usize)> {
    let header = buf.get(offset..offset + FRAME_HEADER)?;
    let magic = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return None;
    }
    let len = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return None;
    }
    let crc = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
    let start = offset + FRAME_HEADER;
    let end = start.checked_add(len as usize)?;
    let payload = buf.get(start..end)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((start..end, end))
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// WAL tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Frames buffered per fsync (1 = sync every append).
    pub group_commit: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { group_commit: 32 }
    }
}

/// What [`Wal::replay`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Whole valid frames recovered.
    pub frames: u64,
    /// Bytes of torn tail discarded (0 on a clean log).
    pub torn_bytes: u64,
}

/// A write-ahead log over a [`Disk`]'s append-only region.
pub struct Wal<D: Disk> {
    disk: D,
    config: WalConfig,
    /// Appended-but-unsynced frames (the group-commit window).
    pending: usize,
    frames: u64,
    recorder: Recorder,
}

impl<D: Disk> Wal<D> {
    /// Wraps `disk` (whose log may already hold frames from a previous
    /// run — call [`Wal::replay`] before appending).
    pub fn new(disk: D, config: WalConfig) -> Wal<D> {
        Wal {
            disk,
            config,
            pending: 0,
            frames: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a metrics recorder: bytes appended, group-commit batch
    /// occupancy at each sync, and fsync latency (charged in the
    /// recorder's own time domain — virtual under a `SimDisk` on a
    /// virtual clock, so the figures stay deterministic).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The underlying disk.
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Frames appended (including replayed ones).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Appends one record as a frame. Durability is deferred to the group
    /// commit: the disk is synced once `group_commit` frames accumulate.
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure, [`StorageError::DiskFull`]
    /// when the device has no room — in which case nothing was written
    /// (the frame counter does not advance) and the log's existing
    /// contents remain intact and replayable: callers should degrade to
    /// read-only, not discard the journal.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        let frame = encode_frame(payload);
        let offset = self.disk.append(&frame)?;
        self.frames += 1;
        self.pending += 1;
        self.recorder
            .add("storage.wal_append_bytes", "", frame.len() as u64);
        if self.pending >= self.config.group_commit.max(1) {
            self.commit()?;
        }
        Ok(offset)
    }

    /// Forces the group commit: every appended frame becomes durable.
    /// No-op when nothing is pending.
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        if self.pending == 0 {
            return Ok(());
        }
        self.recorder
            .observe("storage.wal_batch", "", self.pending as u64);
        let t = self.recorder.now_ns();
        self.disk.sync()?;
        self.recorder.observe_since("storage.fsync_ns", "", t);
        self.pending = 0;
        Ok(())
    }

    /// Replays every whole frame through `apply`, truncating any torn
    /// tail back to the last frame boundary. Called once at recovery,
    /// before new appends.
    ///
    /// A frame whose checksum holds but whose payload `apply` rejects is
    /// treated exactly like a torn tail: replay stops **and the log is
    /// truncated at that frame** before the error is returned, so the
    /// machine state (the applied prefix) and the log agree, and future
    /// appends land where the next replay will read them — a bad record
    /// must not turn the journal into a write-only black hole.
    ///
    /// # Errors
    /// Disk failures, or the first error `apply` returns.
    pub fn replay(
        &mut self,
        mut apply: impl FnMut(&[u8]) -> Result<(), StorageError>,
    ) -> Result<ReplaySummary, StorageError> {
        let len = self.disk.len();
        let mut buf = vec![0u8; len as usize];
        self.disk.read_at(0, &mut buf)?;
        let mut offset = 0usize;
        let mut summary = ReplaySummary::default();
        while let Some((payload, next)) = decode_frame(&buf, offset) {
            if let Err(e) = apply(&buf[payload]) {
                self.disk.truncate(offset as u64)?;
                self.frames = summary.frames;
                self.pending = 0;
                return Err(e);
            }
            summary.frames += 1;
            offset = next;
        }
        if (offset as u64) < len {
            summary.torn_bytes = len - offset as u64;
            self.disk.truncate(offset as u64)?;
        }
        self.frames = summary.frames;
        self.pending = 0;
        Ok(summary)
    }

    /// Empties the log (after its contents were folded into a snapshot).
    ///
    /// # Errors
    /// [`StorageError::Io`] on disk failure.
    pub fn reset(&mut self) -> Result<(), StorageError> {
        self.disk.truncate(0)?;
        self.disk.sync()?;
        self.frames = 0;
        self.pending = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskProfile, SimDisk};
    use ddemos_protocol::clock::GlobalClock;
    use std::sync::Arc;

    fn sim() -> Arc<SimDisk> {
        Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant()))
    }

    fn collect(wal: &mut Wal<Arc<SimDisk>>) -> (Vec<Vec<u8>>, ReplaySummary) {
        let mut frames = Vec::new();
        let summary = wal
            .replay(|p| {
                frames.push(p.to_vec());
                Ok(())
            })
            .unwrap();
        (frames, summary)
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_roundtrip() {
        let disk = sim();
        let mut wal = Wal::new(disk.clone(), WalConfig { group_commit: 4 });
        for i in 0u32..10 {
            wal.append(&i.to_be_bytes()).unwrap();
        }
        wal.commit().unwrap();
        let mut fresh = Wal::new(disk, WalConfig::default());
        let (frames, summary) = collect(&mut fresh);
        assert_eq!(summary.frames, 10);
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(frames.len(), 10);
        assert_eq!(frames[7], 7u32.to_be_bytes());
    }

    #[test]
    fn group_commit_amortizes_syncs() {
        let disk = sim();
        let mut wal = Wal::new(disk.clone(), WalConfig { group_commit: 8 });
        for _ in 0..16 {
            wal.append(b"record").unwrap();
        }
        assert_eq!(disk.syncs(), 2, "16 appends at batch 8 = 2 syncs");
        wal.commit().unwrap();
        assert_eq!(disk.syncs(), 2, "commit with empty window is free");
        wal.append(b"one more").unwrap();
        wal.commit().unwrap();
        assert_eq!(disk.syncs(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_on_replay() {
        let disk = sim();
        let mut wal = Wal::new(disk.clone(), WalConfig { group_commit: 1 });
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        // A torn third frame: synced frames survive, the unsynced append
        // is cut mid-frame by the crash.
        let mut torn = Wal::new(disk.clone(), WalConfig { group_commit: 100 });
        torn.replay(|_| Ok(())).unwrap();
        torn.append(b"third-unsynced").unwrap();
        disk.crash(5).unwrap(); // keep 5 bytes of the torn frame
        let mut fresh = Wal::new(disk.clone(), WalConfig::default());
        let (frames, summary) = collect(&mut fresh);
        assert_eq!(frames.len(), 2);
        assert_eq!(summary.torn_bytes, 5);
        // The log is repaired: appending after recovery yields a clean log.
        fresh.append(b"third-retry").unwrap();
        fresh.commit().unwrap();
        let mut again = Wal::new(disk, WalConfig::default());
        let (frames, summary) = collect(&mut again);
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(
            frames,
            vec![
                b"first".to_vec(),
                b"second".to_vec(),
                b"third-retry".to_vec()
            ]
        );
    }

    #[test]
    fn rejected_record_truncates_log_so_later_appends_replay() {
        let disk = sim();
        let mut wal = Wal::new(disk.clone(), WalConfig { group_commit: 1 });
        wal.append(b"good").unwrap();
        wal.append(b"poison").unwrap();
        wal.append(b"unreachable").unwrap();
        // Replay rejects the poison record: the error surfaces, but the
        // log is truncated at that frame so the applied prefix and the
        // log agree — and new appends are NOT written into a dead zone
        // behind a permanently-failing frame.
        let mut recovering = Wal::new(disk.clone(), WalConfig { group_commit: 1 });
        let mut applied = Vec::new();
        let err = recovering.replay(|r| {
            if r == b"poison" {
                return Err(StorageError::Corrupt("poison"));
            }
            applied.push(r.to_vec());
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(applied, vec![b"good".to_vec()]);
        recovering.append(b"after-repair").unwrap();
        let mut fresh = Wal::new(disk, WalConfig::default());
        let (frames, summary) = collect(&mut fresh);
        assert_eq!(frames, vec![b"good".to_vec(), b"after-repair".to_vec()]);
        assert_eq!(summary.torn_bytes, 0);
    }

    #[test]
    fn full_disk_append_is_typed_and_preserves_the_log() {
        let disk = sim();
        let mut wal = Wal::new(disk.clone(), WalConfig { group_commit: 1 });
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        disk.set_full(true);
        let err = wal.append(b"overflow").unwrap_err();
        assert!(err.is_disk_full(), "expected DiskFull, got {err}");
        assert_eq!(wal.frames(), 2, "failed append must not count a frame");
        // Everything already durable replays exactly; the journal was not
        // dropped by the failure.
        let mut fresh = Wal::new(disk.clone(), WalConfig::default());
        let (frames, summary) = collect(&mut fresh);
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(summary.torn_bytes, 0);
        // Space reclaimed: appends work again.
        disk.set_full(false);
        fresh.append(b"third").unwrap();
        assert_eq!(fresh.frames(), 3);
    }

    #[test]
    fn corrupted_payload_stops_replay() {
        let disk = sim();
        let mut wal = Wal::new(disk.clone(), WalConfig { group_commit: 1 });
        wal.append(b"good").unwrap();
        let offset = wal.append(b"to-corrupt").unwrap();
        wal.append(b"after").unwrap();
        // Flip a payload byte of the middle frame in place.
        {
            let mut byte = [0u8; 1];
            disk.read_at(offset + FRAME_HEADER as u64, &mut byte)
                .unwrap();
            let tail_start = offset as usize + FRAME_HEADER;
            let len = disk.len() as usize;
            let mut rest = vec![0u8; len - tail_start];
            disk.read_at(tail_start as u64, &mut rest).unwrap();
            rest[0] ^= 0xFF;
            disk.truncate(tail_start as u64).unwrap();
            disk.append(&rest).unwrap();
            disk.sync().unwrap();
        }
        let mut fresh = Wal::new(disk, WalConfig::default());
        let (frames, summary) = collect(&mut fresh);
        // Replay keeps the clean prefix only — the corrupted frame and
        // everything after it are discarded.
        assert_eq!(frames, vec![b"good".to_vec()]);
        assert!(summary.torn_bytes > 0);
    }
}
