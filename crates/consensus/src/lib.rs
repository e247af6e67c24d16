//! # ddemos-consensus
//!
//! The asynchronous agreement substrate of D-DEMOS's vote-set consensus
//! (§III-E, §V): the batched randomized binary Byzantine consensus
//! ([`binary`]), run directly over the authenticated point-to-point
//! channels, deciding one bit per registered ballot with all ballots
//! sharing each round's message flow.
//!
//! It is a sans-IO state machine — it consumes authenticated messages and
//! emits messages to broadcast — so it can be driven by the simulated
//! network, by deterministic test schedulers, or by property tests
//! exploring adversarial delivery orders.

#![warn(missing_docs)]

pub mod binary;

pub use binary::BatchConsensus;
