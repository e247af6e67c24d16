//! # ddemos-vc
//!
//! The Vote Collection subsystem — the paper's primary distributed
//! contribution (§III-E): a cluster of `Nv ≥ 3fv+1` nodes that collects
//! votes fully asynchronously, gives each voter a human-verifiable
//! recorded-as-cast receipt (reconstructed from `Nv−fv` EA-dealt shares
//! under a uniqueness certificate), and at election end agrees on a single
//! vote set via batched binary consensus with ANNOUNCE dispersal and
//! RECOVER back-fill.
//!
//! * [`core`] — the sans-I/O protocol engine ([`VcCore`]): Algorithm 1 +
//!   vote-set consensus as a pure `step(input, now_ms) -> Vec<output>`
//!   state machine, with no thread, socket, clock, or journal of its own.
//! * [`node`] — the thin thread driver pumping a core against any
//!   `ddemos_net::TransportEndpoint` (one thread per node, started by
//!   [`node::spawn`]).
//! * [`store`] — ballot stores: in-memory, PRF-derived (virtual 250M-ballot
//!   elections), and the index-depth latency model for the disk experiment
//!   (hierarchy and calibration documented in `DESIGN.md` at the workspace
//!   root).
//! * [`behavior`] — Byzantine behaviour profiles used by security tests.
//!
//! Clusters are normally stood up through the `ddemos-harness` facade
//! (`ElectionBuilder`), which spawns the node threads, wires the stores
//! via its `StoreKind` option, and drives vote-set consensus to
//! [`FinalizedVoteSet`]s deterministically — or, for multi-process
//! deployments, through `ddemos_harness::tcp`, which runs the same driver
//! over real sockets.

#![warn(missing_docs)]

pub mod behavior;
pub mod core;
mod durable;
pub mod node;
pub mod store;

pub use behavior::{AdversaryView, Trigger, TriggeredAdversary, VcBehavior};
pub use core::{StepTrace, TraceStep, VcCore, VcDurable, VcInput, VcOutput};
pub use ddemos_protocol::posts::FinalizedVoteSet;
pub use node::{DeliverTarget, VcHandle, VcNodeConfig};
pub use store::{BallotStore, FnStore, LatencyStore, MemoryStore, StorageModel};
