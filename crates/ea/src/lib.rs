//! # ddemos-ea
//!
//! The Election Authority (§III-D): the setup-only component that produces
//! every other component's initialization data and is then destroyed.
//!
//! All election secrets derive deterministically from one master seed via
//! the HMAC-SHA256 PRF, which makes setup reproducible, allows per-ballot
//! data to be *re-derived on demand* (the virtual ballot store used by the
//! 250-million-voter experiment, Fig 5a), and lets setup parallelize across
//! ballots without changing its output.
//!
//! Per ballot, the EA produces:
//! * the voter's two-part ballot (vote codes, receipts);
//! * per-VC-node rows: hashed vote codes plus EA-tagged receipt shares
//!   (`(Nv−fv, Nv)` trusted-dealer VSS);
//! * BB rows: `msk`-encrypted vote codes, lifted-ElGamal option-encoding
//!   commitments, and zero-knowledge first moves — shuffled per part;
//! * trustee shares: `(h_t, N_t)` Shamir shares of every commitment opening
//!   and of the affine coefficients of every pending ZK final move.

#![warn(missing_docs)]

pub mod setup;

pub use setup::{ElectionAuthority, SetupOutput, SetupProfile};
