//! # ddemos-storage
//!
//! Durable node state for the D-DEMOS replicas.
//!
//! The paper's prototype keeps Vote Collector and Bulletin Board state in
//! PostgreSQL precisely so a node that crashes can rejoin with its
//! obligations intact (never sign a second code for a ballot, never
//! un-accept a verified write). This crate is that persistence
//! layer for the reproduction:
//!
//! * [`Disk`] — the backend abstraction, with [`FileDisk`] (real
//!   `std::fs`) and [`SimDisk`] (deterministic in-memory, latencies
//!   charged on the simulation's `GlobalClock`, torn-tail crash
//!   injection).
//! * [`Wal`] — an append-only, CRC-32-checksummed, group-committed
//!   write-ahead log whose replay truncates torn tails.
//! * [`Journal`] + [`Durable`] — snapshot + WAL recovery for a state
//!   machine, with automatic compaction cadence.
//!
//! The `ddemos-vc` and `ddemos-bb` crates implement [`Durable`] for their
//! replicas; the harness's `ElectionBuilder::durability` option wires the
//! journals in, and the fuzzer's `CrashAmnesia` fault exercises the
//! recovery path end to end.

#![warn(missing_docs)]

pub mod disk;
pub mod journal;
pub mod wal;

pub use disk::{Disk, DiskProfile, DynDisk, FileDisk, SimDisk, StorageError};
pub use journal::{Durable, Journal, JournalConfig, RecoveryStats};
pub use wal::{crc32, decode_frame, encode_frame, ReplaySummary, Wal, WalConfig};

/// A journal over a shared dynamic disk (what node state machines hold).
pub type DynJournal = Journal<DynDisk>;
