//! # ddemos-obs
//!
//! Typed metrics for the D-DEMOS reproduction: [`Counter`], [`Gauge`],
//! and the log-linear [`Histogram`] behind a per-node [`Recorder`] that
//! freezes into a mergeable, canonically ordered [`MetricsSnapshot`].
//!
//! Three properties drive the design (see `DESIGN.md` §11):
//!
//! * **Dependency leaf.** Every layer — crypto, storage, net, the node
//!   drivers — can hold a `Recorder` without a cycle, because this crate
//!   depends on nothing. Time arrives through the [`TimeSource`] trait;
//!   the harness adapts its `GlobalClock` behind it.
//! * **Deterministic by default.** Virtual elections read virtual time:
//!   within one `step()` virtual time is frozen, so in-step latencies
//!   are exactly 0 and every count, batch occupancy, and disk-charged
//!   latency is a pure function of the seed. Such
//!   [`TimeDomain::Virtual`] snapshots are byte-identical across runs
//!   and thread counts and join the replay fingerprint; wall-domain
//!   snapshots never do.
//! * **Near-zero cost when off.** A disabled recorder is an `Option`
//!   branch; the global profiling hook is one atomic load.

#![warn(missing_docs)]

pub mod gate;
mod hist;
mod recorder;
mod snapshot;

pub use hist::Histogram;
pub use recorder::{
    clear_global, install_global, scoped_ns, Recorder, ScopedTimer, TimeSource, WallSource,
};
pub use snapshot::{
    metric_key, split_key, Counter, Gauge, MetricsSnapshot, TimeDomain, UNSTABLE_PREFIX,
};
