//! # ddemos-crypto
//!
//! The cryptographic substrate of the D-DEMOS reproduction, built entirely
//! from scratch (no external cryptography crates):
//!
//! * [`u256`] / [`field`] / [`curve`] — 256-bit arithmetic, Montgomery-form
//!   prime fields, and the secp256k1 group.
//! * [`sha256`] / [`hmac`] — hashing and the deterministic PRF used to
//!   derive election secrets (and to virtualize giant ballot stores).
//! * [`aes`] / [`votecode`] — AES-128-CBC$ and the paper's vote-code and
//!   master-key commitments (§III-D).
//! * [`elgamal`] — lifted ElGamal option-encoding commitments (§III-B).
//! * [`batch`] — the one batch-verification engine ([`batch::LinearBatch`])
//!   under signature bursts, result publication and the audit.
//! * [`shamir`] / [`vss`] — Shamir sharing (the trustees' shares of
//!   openings, proof coefficients and the tally) and its dealer-signed
//!   form for receipts and `msk`.
//! * [`schnorr`] — signatures for node identities, ENDORSEMENTs/UCERTs and
//!   BB writes.
//! * [`zkp`] — Chaum–Pedersen Sigma-OR ballot-correctness proofs with the
//!   voter-coin challenge and the trustee-distributed final move.
//! * [`cpu`] — the one CPU probe, and the vector kernels it picks for the
//!   hashing and the MSMs (the `portable` feature compiles them out).
//!
//! Everything is deterministic under caller-provided RNGs, making elections
//! reproducible from a single master seed.
//!
//! ```
//! use ddemos_crypto::elgamal::{keygen, encrypt_u64, decrypt_u64};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let (sk, pk) = keygen(&mut rng);
//! let (ct_a, _) = encrypt_u64(&pk, 20, &mut rng);
//! let (ct_b, _) = encrypt_u64(&pk, 22, &mut rng);
//! assert_eq!(decrypt_u64(&sk, &ct_a.add(&ct_b), 100), Some(42));
//! ```

#![warn(missing_docs)]

pub mod aes;
pub mod batch;
pub mod cpu;
pub mod curve;
pub mod elgamal;
pub mod field;
pub mod hmac;
pub mod mverify;
pub mod schnorr;
pub mod sha256;
pub mod shamir;
pub mod u256;
pub mod votecode;
pub mod vss;
pub mod zkp;
