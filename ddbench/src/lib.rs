//! `ddbench`: one election benchmark for D-DEMOS — voter, official and
//! auditor metrics over four workloads, with a per-layer ledger. See
//! `README.md` beside this crate.

pub mod compare;
pub mod e2e;
pub mod env;
pub mod json;
pub mod report;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workload;
