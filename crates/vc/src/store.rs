//! Ballot stores backing a VC node.
//!
//! The paper's prototype keeps VC initialization data in PostgreSQL and,
//! for the scalability experiments, either serves it from disk (Fig 5a) or
//! caches it in memory (Fig 4). Here a store is a trait: an in-memory map,
//! a derivation function (the PRF-backed virtual store for 250M-ballot
//! elections), and a latency-model wrapper that charges the index-depth
//! cost a database lookup would (the Fig 5a substitution; see §1–2 of
//! `DESIGN.md` at the workspace root for the hierarchy and the model's
//! calibration). Deployments pick a store through the harness's
//! `StoreKind` builder option rather than constructing these directly.

use ddemos_protocol::clock::GlobalClock;
use ddemos_protocol::initdata::VcBallot;
use ddemos_protocol::SerialNo;
use std::collections::BTreeMap;
use std::time::Duration;

/// Source of per-ballot VC rows.
pub trait BallotStore: Send + Sync {
    /// Fetches the rows for `serial` (None for unknown serials).
    fn get(&self, serial: SerialNo) -> Option<VcBallot>;
    /// The number of registered ballots (serials are `0..num_ballots`).
    fn num_ballots(&self) -> u64;
}

/// A boxed store is a store: the harness picks the store kind at run
/// time and hands every collector one `Box<dyn BallotStore>`.
impl<S: BallotStore + ?Sized> BallotStore for Box<S> {
    fn get(&self, serial: SerialNo) -> Option<VcBallot> {
        (**self).get(serial)
    }
    fn num_ballots(&self) -> u64 {
        (**self).num_ballots()
    }
}

/// A fully materialized in-memory store.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: BTreeMap<SerialNo, VcBallot>,
    n: u64,
}

impl MemoryStore {
    /// Builds a store from materialized init data.
    pub fn new(map: BTreeMap<SerialNo, VcBallot>, n: u64) -> MemoryStore {
        MemoryStore { map, n }
    }
}

impl BallotStore for MemoryStore {
    fn get(&self, serial: SerialNo) -> Option<VcBallot> {
        self.map.get(&serial).cloned()
    }
    fn num_ballots(&self) -> u64 {
        self.n
    }
}

/// A store that derives rows on demand from a closure (the PRF-backed
/// virtual store; the closure typically calls back into the EA derivation).
pub struct FnStore<F> {
    derive: F,
    n: u64,
}

impl<F> FnStore<F>
where
    F: Fn(SerialNo) -> Option<VcBallot> + Send + Sync,
{
    /// Builds a virtual store over `n` ballots.
    pub fn new(n: u64, derive: F) -> FnStore<F> {
        FnStore { derive, n }
    }
}

impl<F> BallotStore for FnStore<F>
where
    F: Fn(SerialNo) -> Option<VcBallot> + Send + Sync,
{
    fn get(&self, serial: SerialNo) -> Option<VcBallot> {
        if serial.0 >= self.n {
            return None;
        }
        (self.derive)(serial)
    }
    fn num_ballots(&self) -> u64 {
        self.n
    }
}

/// Synthetic per-lookup latency model: `base + per_level · log₂(n)`,
/// approximating B-tree index depth growth with electorate size.
///
/// Calibration: with the defaults (`base = 80 µs`, `per_level = 14 µs`),
/// a 50M-row index (log₂ ≈ 25.6) costs ~439 µs and a 250M-row index
/// (log₂ ≈ 27.9) costs ~471 µs per lookup — matching the gentle throughput
/// decline of Fig 5a rather than any cliff.
#[derive(Clone, Copy, Debug)]
pub struct StorageModel {
    /// Fixed per-lookup cost.
    pub base: Duration,
    /// Additional cost per index level (`log₂(num_ballots)`).
    pub per_level: Duration,
    /// Cache-miss term: additional cost per `√(num_ballots / 10⁶)`. Index
    /// upper levels stay RAM-resident; leaf/heap hit rates degrade with
    /// table size, which is what bends the Fig 5a curve beyond pure index
    /// depth.
    pub per_sqrt_million: Duration,
}

impl Default for StorageModel {
    fn default() -> Self {
        StorageModel {
            base: Duration::from_micros(80),
            per_level: Duration::from_micros(14),
            per_sqrt_million: Duration::from_micros(60),
        }
    }
}

impl StorageModel {
    /// The modelled lookup latency for an `n`-ballot election.
    pub fn lookup_latency(&self, n: u64) -> Duration {
        let levels = (n.max(2) as f64).log2();
        let sqrt_millions = (n as f64 / 1e6).sqrt();
        self.base
            + Duration::from_nanos((self.per_level.as_nanos() as f64 * levels) as u64)
            + Duration::from_nanos((self.per_sqrt_million.as_nanos() as f64 * sqrt_millions) as u64)
    }
}

/// Wraps a store, charging the modelled lookup latency on every `get`
/// through a clock-driven wait: real mode sleeps the OS thread (no
/// core-burning spin loop, even for sub-millisecond latencies), virtual
/// mode blocks in virtual time so the charge costs no wall clock at all.
pub struct LatencyStore<S> {
    inner: S,
    latency: Duration,
    clock: GlobalClock,
}

impl<S: BallotStore> LatencyStore<S> {
    /// Wraps `inner` with the latency predicted by `model` for its size,
    /// charged against a fresh real-time clock.
    pub fn new(inner: S, model: StorageModel) -> LatencyStore<S> {
        Self::with_clock(inner, model, GlobalClock::new())
    }

    /// Wraps `inner`, charging the modelled latency against `clock`
    /// (virtual elections pass their virtual global clock here).
    pub fn with_clock(inner: S, model: StorageModel, clock: GlobalClock) -> LatencyStore<S> {
        let latency = model.lookup_latency(inner.num_ballots());
        LatencyStore {
            inner,
            latency,
            clock,
        }
    }

    /// The charged per-lookup latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

impl<S: BallotStore> BallotStore for LatencyStore<S> {
    fn get(&self, serial: SerialNo) -> Option<VcBallot> {
        self.clock.sleep(self.latency);
        self.inner.get(serial)
    }
    fn num_ballots(&self) -> u64 {
        self.inner.num_ballots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_lookup() {
        let store = MemoryStore::new(BTreeMap::new(), 0);
        assert!(store.get(SerialNo(0)).is_none());
        assert_eq!(store.num_ballots(), 0);
    }

    #[test]
    fn fn_store_bounds() {
        let store = FnStore::new(5, |s| {
            Some(VcBallot {
                parts: [vec![], vec![]],
            })
            .filter(|_| s.0 < 5)
        });
        assert!(store.get(SerialNo(4)).is_some());
        assert!(store.get(SerialNo(5)).is_none());
    }

    #[test]
    fn storage_model_grows_with_log_n() {
        let model = StorageModel::default();
        let small = model.lookup_latency(50_000_000);
        let large = model.lookup_latency(250_000_000);
        assert!(large > small);
        // Sub-linear: 5x the rows costs well under 2x the latency.
        assert!(large < small * 2);
    }

    #[test]
    fn latency_store_charges_time() {
        let inner = MemoryStore::new(BTreeMap::new(), 1 << 20);
        let model = StorageModel {
            base: Duration::from_micros(300),
            per_level: Duration::ZERO,
            per_sqrt_million: Duration::ZERO,
        };
        let store = LatencyStore::new(inner, model);
        let t0 = std::time::Instant::now();
        let _ = store.get(SerialNo(0));
        assert!(t0.elapsed() >= Duration::from_micros(250));
    }

    #[test]
    fn latency_store_charges_virtual_time_without_wall_time() {
        use ddemos_protocol::clock::VirtualClock;
        let inner = MemoryStore::new(BTreeMap::new(), 1 << 20);
        let model = StorageModel {
            base: Duration::from_millis(400),
            per_level: Duration::ZERO,
            per_sqrt_million: Duration::ZERO,
        };
        let vclock = VirtualClock::new();
        let store =
            LatencyStore::with_clock(inner, model, GlobalClock::new_virtual(vclock.clone()));
        let wall = std::time::Instant::now();
        let _ = store.get(SerialNo(0));
        assert!(vclock.now_ms() >= 400, "virtual charge applied");
        assert!(
            wall.elapsed() < Duration::from_millis(400),
            "no wall-time cost"
        );
    }
}
