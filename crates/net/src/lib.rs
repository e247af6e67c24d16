//! # ddemos-net
//!
//! The network layer: the [`TransportEndpoint`] trait the sans-I/O node
//! cores are driven over, and two stacks behind it —
//!
//! * [`SimNet`] — the in-process simulated network standing in for the
//!   paper's asynchronous communications stack and testbed (§V):
//!   authenticated message-oriented channels, per-edge latency/jitter
//!   (LAN and netem-style WAN profiles), loss, duplication, crash and
//!   partition injection, traffic counters, and an optional virtual-time
//!   mode.
//! * real sockets, one party per OS process: every replica and every
//!   client is an [`EvNodeEndpoint`] over its own [`evloop::EvLoop`] (a
//!   readiness loop multiplexing every connection through the [`auth`]
//!   authenticated-channel protocol, with connection admission,
//!   backpressure and typed rejects — no thread per peer). A replica's
//!   loop serves its listener; a client's has none and dials out, and an
//!   [`AuthTransport`] hands client endpoints out.
//!
//! Envelope sources are authenticated on both: the router stamps them
//! on `SimNet`, the channel identity on sockets.

#![warn(missing_docs)]

pub mod auth;
pub mod evloop;
pub mod evnode;
pub mod latency;
pub mod simnet;
pub mod stats;
pub mod sys;
pub mod transport;

pub use evnode::{AuthTransport, EvNodeEndpoint};
pub use latency::NetworkProfile;
pub use simnet::{AmnesiaHook, Endpoint, Envelope, NetFault, SimNet};
pub use stats::NetStats;
pub use transport::{DynEndpoint, TransportEndpoint};
