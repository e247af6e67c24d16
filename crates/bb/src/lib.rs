//! # ddemos-bb
//!
//! The replicated Bulletin Board subsystem (§III-G): `Nb ≥ 2fb+1` isolated
//! nodes that publish election data and verify every authenticated write —
//! vote sets (`fv+1` identical copies), EA-signed `msk` shares checked
//! against `H_msk`, and trustee posts (openings, distributed ZK final
//! moves, tally-opening shares), culminating in the published result.
//! Readers use [`reader::MajorityReader`], the library form of the paper's
//! majority-comparing browser extension (§V).
//!
//! The write-verification state machine itself is the sans-I/O
//! [`core::BbCore`] (`step(input) -> Vec<output>`, same shape as
//! `ddemos_vc`'s `VcCore`); [`node::BbNode`] wraps it with a lock and an
//! optional durable journal, [`node::serve`] runs a replica over any
//! transport endpoint, [`RemoteBb`] is a client of one, and [`codec`]
//! gives snapshots a canonical wire form for those clients.

#![warn(missing_docs)]

pub mod codec;
pub mod core;
pub mod node;
pub mod reader;

pub use core::{trustee_post_digest, BbCore, BbInput, BbOutput, BbSnapshot, WriteError};
pub use node::BbNode;
pub use reader::{BbApi, MajorityReader, PendingRead, RemoteBb};
