//! # ddemos-protocol
//!
//! Shared protocol vocabulary for the D-DEMOS reproduction: identifiers,
//! election parameters and fault thresholds (§III-C), voter ballots
//! (§III-D), per-component initialization data dealt by the Election
//! Authority and the chunked deal of a BB replica's share of it
//! ([`deal`]), wire-canonical encoding for everything that gets signed or
//! digest-compared, the message set of the vote-collection and vote-set
//! consensus protocols (§III-E), post-election Bulletin Board records
//! (§III-G/H), drift-capable simulation clocks (§III-C assumptions), and
//! the chunking thread-pool executor ([`exec`]) shared by the
//! crypto-heavy phases.

#![warn(missing_docs)]

pub mod ballot;
pub mod clock;
pub mod codec;
pub mod deal;
pub mod exec;
pub mod ids;
pub mod initdata;
pub mod messages;
pub mod params;
pub mod posts;
pub mod wire;

pub use ids::{ElectionId, NodeId, NodeKind, PartId, SerialNo, COORDINATOR};
pub use params::ElectionParams;
