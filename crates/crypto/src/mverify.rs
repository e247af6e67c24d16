//! The batch-first message verification layer owned by each replica
//! core: per-peer prepared tables, batching, and the hand-off of one
//! burst's batch verdicts to the steps that follow it.
//!
//! Replica hot paths (`HonestCore`, `BbCore`) never call one-at-a-time
//! [`crate::schnorr::VerifyingKey::verify`] — the workspace lint's
//! `scalar-verify` rule denies it there. Instead each core owns a
//! [`MsgVerifier`]:
//!
//! * **Prepared tables** — 7-bit fixed-base comb tables (148 KiB) for the
//!   keys whose use repays the ~0.4 ms build (a collector's peers,
//!   checked several times a cast; a board's writers are not — see
//!   `BbCore`), built once at startup.
//! * **Batching** — [`MsgVerifier::check_batch`] verifies each distinct
//!   `(key, R, s, H(msg))` of a queue once — a burst of `VOTE_P`s carries
//!   the same UCERT signatures in every message — and all copies share
//!   the verdict. A remainder of up to `PREPARED_BATCH_MAX` goes through
//!   the comb tables, every `s·G − e·PK` of the call summed in lockstep
//!   ([`crate::schnorr::verify_prepared`]) and compared with its `R` as it
//!   comes out affine, and so does [`MsgVerifier::check`]'s one; a larger
//!   one collapses into one MSM via [`crate::schnorr::verify_batch`], whose
//!   engine ([`crate::batch::LinearBatch`]) attributes any invalid entry to
//!   its index.
//! * **Burst hand-off** — a collector that drains several inputs at once
//!   batch-verifies the signatures their steps will check
//!   ([`MsgVerifier::check_burst`], called by `HonestCore::preverify`),
//!   and the steps find them in the set of digests that call verified.
//!   Each call replaces the set, so it never holds more than one burst;
//!   `check`, `check_share` and `check_batch` only read it. Nothing is
//!   remembered across bursts.
//!
//! Correctness note: a digest enters the hand-off set only by verifying,
//! and the in-call dedup only shares a verdict between byte-equal
//! triples, so accept/reject outcomes are identical with or without the
//! hand-off. Determinism survives because the set is a function of the
//! burst sequence alone.

use crate::schnorr::{
    verify_batch, verify_prepared, BatchEntry, PreparedVerifier, Signature, VerifyingKey,
};
use crate::sha256::{sha256, sha256_parts};
use crate::vss::{DealerVss, SignedShare};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Largest distinct fresh batch routed through the per-peer comb tables
/// instead of the one-MSM path. The tables cost a flat ~14 µs a signature
/// from eight up (every `s·G − e·PK` of the call summed in lockstep out of
/// the 8-bit generator and 7-bit peer tables); the MSM, whose commitment
/// terms carry 128-bit weights, amortizes from ~62 µs a signature at 4 to
/// ~10 µs at 128 and crosses the tables at ~56 for signatures made in
/// this process, at ~128 for signatures off the wire, which owe it a
/// square root each. 64 sits between the two: either kind is within
/// ~4 µs a signature of its better path on both sides of it (DESIGN.md
/// §12.3).
const PREPARED_BATCH_MAX: usize = 64;

/// What a [`MsgVerifier`] did with the signatures handed to it: a pure
/// function of the call sequence, so the counts repeat exactly wherever
/// the inputs do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigCounts {
    /// Verified with group math (whatever the verdict).
    pub fresh: u64,
    /// Answered by the burst hand-off.
    pub cached: u64,
    /// Shared the verdict of an equal item earlier in the same batch.
    pub deduped: u64,
}

/// Per-core verification front end: prepared tables + batching + the
/// burst hand-off.
///
/// Method names deliberately avoid the `verify` identifier — the
/// `scalar-verify` lint denies that token on VC/BB message paths, and
/// this type is the sanctioned route around it.
#[derive(Debug, Default)]
pub struct MsgVerifier {
    /// Digests of the signatures the last [`MsgVerifier::check_burst`]
    /// verified, which the steps of that burst find here instead of
    /// verifying again.
    burst: BTreeSet<[u8; 32]>,
    prepared: BTreeMap<[u8; 33], PreparedVerifier>,
    counts: SigCounts,
}

impl std::fmt::Debug for PreparedVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PreparedVerifier({:?})", self.key())
    }
}

impl MsgVerifier {
    /// The signature work done since the last call (diagnostics: the VC
    /// driver exports it as `vc.sig_checks`).
    pub fn take_counts(&mut self) -> SigCounts {
        std::mem::take(&mut self.counts)
    }

    /// Builds the fixed-base comb table for one peer key. Call once per
    /// static peer (VC/BB/trustee/EA) at core construction; unknown keys
    /// still verify, through the generic ladder.
    pub fn prepare(&mut self, vk: &VerifyingKey) {
        self.prepared
            .entry(vk.to_bytes())
            .or_insert_with(|| PreparedVerifier::new(vk));
    }

    /// Content hash of one (key, message, signature) triple, given the
    /// message's SHA-256.
    fn digest(vk: &VerifyingKey, msg_digest: &[u8; 32], sig: &Signature) -> [u8; 32] {
        sha256_parts(&[
            b"ddemos/verified-cache/v1",
            &vk.to_bytes(),
            &sig.r_bytes(),
            &sig.s().to_bytes(),
            msg_digest,
        ])
    }

    /// Verifies one signature: a hand-off lookup, then the prepared table
    /// (or the generic path for unknown keys).
    pub fn check(&mut self, vk: &VerifyingKey, message: &[u8], sig: &Signature) -> bool {
        // Outside a burst the set is empty: no digest to compute.
        let handed_off = !self.burst.is_empty() && {
            let digest = Self::digest(vk, &sha256(message), sig);
            self.burst.contains(&digest)
        };
        if handed_off {
            self.counts.cached += 1;
            return true;
        }
        self.counts.fresh += 1;
        match self.prepared.get(&vk.to_bytes()) {
            Some(prepared) => verify_prepared(&[(prepared, message, sig)])[0],
            None => vk.verify_inner(message, sig),
        }
    }

    /// Verifies a dealer-signed share (the EA-signed `msk` shares a
    /// board checks) through the same hand-off + table path.
    pub fn check_share(
        &mut self,
        dealer: &VerifyingKey,
        context: &[u8],
        share: &SignedShare,
    ) -> bool {
        let message = DealerVss::share_message(context, &share.share);
        self.check(dealer, &message, &share.signature)
    }

    /// Verifies a queue of signatures in one batch: entries handed off by
    /// this burst's [`MsgVerifier::check_burst`] are free, equal entries
    /// are verified once, and the distinct remainder goes through the comb
    /// tables (small) or a single MSM that attributes each invalid entry
    /// (large). Returns one verdict per input, in order.
    pub fn check_batch(&mut self, items: &[(VerifyingKey, Vec<u8>, Signature)]) -> Vec<bool> {
        self.batch(items).into_iter().map(|(ok, _)| ok).collect()
    }

    /// Verifies a burst's signatures in one batch ([`MsgVerifier::check_batch`]
    /// without the hand-off lookups) and hands the steps of that burst the
    /// digests of those that verified, replacing the previous burst's.
    pub fn check_burst(&mut self, items: &[(VerifyingKey, Vec<u8>, Signature)]) {
        // The previous burst's digests go first: nothing carries over.
        self.burst.clear();
        self.burst = self
            .batch(items)
            .into_iter()
            .filter_map(|(ok, digest)| ok.then_some(digest))
            .collect();
    }

    /// [`MsgVerifier::check_batch`]'s verdicts, each with its item's
    /// digest.
    fn batch(&mut self, items: &[(VerifyingKey, Vec<u8>, Signature)]) -> Vec<(bool, [u8; 32])> {
        let mut verdicts = Vec::with_capacity(items.len());
        // Item index of the first occurrence of every distinct triple not
        // handed off, and the later copies with the position (in `fresh`)
        // of the occurrence whose verdict they share.
        let mut fresh: Vec<usize> = Vec::new();
        let mut copies: Vec<(usize, usize)> = Vec::new();
        let mut first_at: BTreeMap<[u8; 32], usize> = BTreeMap::new();
        for (i, (vk, msg, sig)) in items.iter().enumerate() {
            let digest = Self::digest(vk, &sha256(msg), sig);
            verdicts.push((true, digest));
            if self.burst.contains(&digest) {
                self.counts.cached += 1;
                continue;
            }
            match first_at.entry(digest) {
                Entry::Vacant(slot) => {
                    slot.insert(fresh.len());
                    fresh.push(i);
                }
                Entry::Occupied(slot) => copies.push((i, *slot.get())),
            }
        }
        self.counts.fresh += fresh.len() as u64;
        self.counts.deduped += copies.len() as u64;

        let tables: Option<Vec<&PreparedVerifier>> = if fresh.len() <= PREPARED_BATCH_MAX {
            fresh
                .iter()
                .map(|&i| self.prepared.get(&items[i].0.to_bytes()))
                .collect()
        } else {
            None
        };
        let fresh_ok = match tables {
            // Below the MSM's break-even size, the per-peer comb tables
            // win on constant factor: every `s·G − e·PK` in lockstep, each
            // compared with its `R`; outcomes are per-item, so attribution
            // needs no second check.
            Some(tables) => {
                let entries: Vec<_> = tables
                    .into_iter()
                    .zip(&fresh)
                    .map(|(table, &i)| (table, items[i].1.as_slice(), &items[i].2))
                    .collect();
                verify_prepared(&entries)
            }
            None => {
                let entries: Vec<BatchEntry<'_>> = fresh
                    .iter()
                    .map(|&i| (items[i].0, items[i].1.as_slice(), items[i].2))
                    .collect();
                let mut ok = vec![true; fresh.len()];
                if let Err(invalid) = verify_batch(&entries) {
                    for pos in invalid {
                        ok[pos] = false;
                    }
                }
                ok
            }
        };
        for (&i, &ok) in fresh.iter().zip(&fresh_ok) {
            verdicts[i].0 = ok;
        }
        for (i, pos) in copies {
            verdicts[i].0 = fresh_ok[pos];
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Point;
    use crate::field::Scalar;
    use crate::schnorr::SigningKey;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keys(n: usize, seed: u64) -> Vec<SigningKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| SigningKey::generate(&mut rng)).collect()
    }

    fn item(k: &SigningKey, m: &[u8]) -> (VerifyingKey, Vec<u8>, Signature) {
        (k.verifying_key(), m.to_vec(), k.sign(m))
    }

    /// `(fresh, deduped, cached)` since the last call.
    fn counts(mv: &mut MsgVerifier) -> (u64, u64, u64) {
        let c = mv.take_counts();
        (c.fresh, c.deduped, c.cached)
    }

    #[test]
    fn check_matches_plain_verify() {
        let key = keys(1, 1).remove(0);
        let mut mv = MsgVerifier::default();
        mv.prepare(&key.verifying_key());
        let sig = key.sign(b"m");
        assert!(mv.check(&key.verifying_key(), b"m", &sig));
        // Outside a burst nothing is remembered: the second delivery is
        // verified again.
        assert!(mv.check(&key.verifying_key(), b"m", &sig));
        assert!(!mv.check(&key.verifying_key(), b"n", &sig));
        assert_eq!(counts(&mut mv), (3, 0, 0));
        assert!(mv.burst.is_empty());
    }

    #[test]
    fn check_batch_verdicts_align_with_individual() {
        let ks = keys(3, 2);
        let mut mv = MsgVerifier::default();
        let mut items = Vec::new();
        for (i, k) in ks.iter().enumerate() {
            let msg = vec![i as u8; 12];
            let sig = k.sign(&msg);
            items.push((k.verifying_key(), msg, sig));
        }
        // Forge the middle one.
        items[1].2 = ks[1].sign(b"something else");
        assert_eq!(mv.check_batch(&items), vec![true, false, true]);
        // A re-batch verifies again and still agrees.
        assert_eq!(mv.check_batch(&items), vec![true, false, true]);
        assert_eq!(counts(&mut mv), (6, 0, 0));
    }

    /// The burst shape of the cast path: four `VOTE_P`s repeat one
    /// UCERT's signatures. Equal triples cost one verification.
    #[test]
    fn equal_items_in_one_batch_are_verified_once() {
        let ks = keys(3, 4);
        let mut mv = MsgVerifier::default();
        for k in &ks {
            mv.prepare(&k.verifying_key());
        }
        let items = vec![
            item(&ks[0], b"ucert"),
            item(&ks[1], b"ucert"),
            item(&ks[0], b"ucert"),
            item(&ks[2], b"share"),
        ];
        assert_eq!(mv.check_batch(&items), vec![true; 4]);
        assert_eq!(counts(&mut mv), (3, 1, 0));
        // The same in a burst: verified once each, then handed off.
        mv.check_burst(&items);
        assert_eq!(counts(&mut mv), (3, 1, 0));
        assert_eq!(mv.check_batch(&items), vec![true; 4]);
        assert_eq!(counts(&mut mv), (0, 0, 4));
    }

    /// What a burst verified is a hit for that burst's steps, and the
    /// next burst replaces it.
    #[test]
    fn handoff_holds_one_burst() {
        let ks = keys(2, 3);
        let mut mv = MsgVerifier::default();
        let first = [item(&ks[0], b"first"), item(&ks[1], b"first")];
        let second = [item(&ks[0], b"second")];
        mv.check_burst(&first);
        assert_eq!(counts(&mut mv), (2, 0, 0));
        for (vk, m, sig) in &first {
            assert!(mv.check(vk, m, sig));
        }
        assert_eq!(counts(&mut mv), (0, 0, 2));
        mv.check_burst(&second);
        assert_eq!(mv.burst.len(), 1);
        let (vk, m, sig) = &first[0];
        assert!(mv.check(vk, m, sig));
        let (vk, m, sig) = &second[0];
        assert!(mv.check(vk, m, sig));
        assert_eq!(counts(&mut mv), (2, 0, 1), "the first burst was dropped");
        // A burst with no signatures empties the hand-off.
        mv.check_burst(&[]);
        assert!(mv.burst.is_empty());
    }

    #[test]
    fn forgery_never_enters_the_handoff() {
        let ks = keys(2, 5);
        let mut mv = MsgVerifier::default();
        let valid = item(&ks[0], b"valid");
        let mut forged = item(&ks[1], b"forged");
        forged.2 = ks[1].sign(b"another message");
        mv.check_burst(&[forged.clone(), valid.clone(), forged.clone()]);
        assert_eq!(counts(&mut mv), (2, 1, 0));
        assert_eq!(mv.burst.len(), 1);
        assert!(!mv.check(&forged.0, &forged.1, &forged.2));
        assert!(mv.check(&valid.0, &valid.1, &valid.2));
        assert_eq!(counts(&mut mv), (1, 0, 1), "the forgery is verified again");
    }

    #[test]
    fn check_batch_leaves_the_handoff_unchanged() {
        let ks = keys(2, 6);
        let mut mv = MsgVerifier::default();
        let handed = item(&ks[0], b"handed");
        let other = item(&ks[1], b"other");
        mv.check_batch(std::slice::from_ref(&other));
        assert!(mv.burst.is_empty());
        mv.check_burst(std::slice::from_ref(&handed));
        let before = mv.burst.clone();
        assert_eq!(
            mv.check_batch(&[handed.clone(), other.clone()]),
            vec![true; 2]
        );
        assert_eq!(mv.burst, before);
        mv.take_counts();
        assert!(mv.check(&other.0, &other.1, &other.2));
        assert_eq!(counts(&mut mv), (1, 0, 0));
    }

    /// An `R` encoding with a valid prefix whose x is not on the curve.
    fn off_curve(sig: &Signature) -> Signature {
        let mut bytes = sig.to_bytes();
        loop {
            bytes[20] = bytes[20].wrapping_add(1);
            let mut r = [0u8; 33];
            r.copy_from_slice(&bytes[..33]);
            if Point::from_bytes(&r).is_none() {
                return Signature::from_bytes(&bytes).expect("prefix untouched");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `check_batch` is the per-item scalar check, whatever the mix:
        /// hand-off hits, fresh items, copies of earlier items (valid or
        /// forged), forgeries, an `R` off the curve, an identity key —
        /// on the comb-table path (few distinct fresh items, every key
        /// prepared) and on the MSM path (more than `PREPARED_BATCH_MAX`
        /// distinct fresh items, prepared or not, or an unprepared key).
        #[test]
        fn prop_check_batch_equals_scalar_checks(
            seed in any::<u64>(),
            n in 1usize..160,
            prepare in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ks: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
            let identity = VerifyingKey::from_bytes(&[0u8; 33]).expect("identity encoding");
            let mut mv = MsgVerifier::default();
            if prepare {
                for k in &ks {
                    mv.prepare(&k.verifying_key());
                }
                mv.prepare(&identity);
            }
            let mut handed: Vec<(VerifyingKey, Vec<u8>, Signature)> = Vec::new();
            let mut items: Vec<(VerifyingKey, Vec<u8>, Signature)> = Vec::new();
            for i in 0..n {
                let k = &ks[rng.gen_range(0..ks.len())];
                let msg = vec![i as u8; 8 + i % 7];
                let honest = (k.verifying_key(), msg.clone(), k.sign(&msg));
                items.push(match rng.gen_range(0..8u32) {
                    0 => {
                        handed.push(honest.clone());
                        honest
                    }
                    1 | 2 if !items.is_empty() => items[rng.gen_range(0..items.len())].clone(),
                    3 => (honest.0, msg, k.sign(b"another message")),
                    4 => (honest.0, msg, off_curve(&honest.2)),
                    5 => (identity, msg, honest.2),
                    _ => honest,
                });
            }
            let expected: Vec<bool> = items.iter().map(|(vk, m, sig)| vk.verify(m, sig)).collect();
            mv.check_burst(&handed);
            let burst = mv.burst.clone();
            mv.take_counts();
            prop_assert_eq!(&mv.check_batch(&items), &expected);
            let counts = mv.take_counts();
            prop_assert_eq!(counts.fresh + counts.cached + counts.deduped, n as u64);
            // `check_batch` handed nothing on: a second call agrees and
            // the hand-off is the burst's.
            prop_assert_eq!(&mv.check_batch(&items), &expected);
            prop_assert_eq!(&mv.burst, &burst);
        }

        /// A collector's burst on the lockstep table path: four peer keys
        /// and the EA key prepared, one key not, copies and corruptions
        /// (`s ± δ`, a flipped `R` byte, a wrong message, the identity
        /// key). Verdicts are the per-entry scalar check's, and exactly
        /// the valid entries are handed off.
        #[test]
        fn prop_lockstep_verdicts_equal_per_entry_verify(
            seed in any::<u64>(),
            n in 1usize..=24,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ks: Vec<SigningKey> = (0..6).map(|_| SigningKey::generate(&mut rng)).collect();
            let identity = VerifyingKey::from_bytes(&[0u8; 33]).expect("identity encoding");
            let mut mv = MsgVerifier::default();
            // Peers 0..4 and the EA (4) prepared; key 5 is not.
            for k in &ks[..5] {
                mv.prepare(&k.verifying_key());
            }
            let mut items: Vec<(VerifyingKey, Vec<u8>, Signature)> = Vec::new();
            for i in 0..n {
                // The unprepared key rarely, so most bursts stay on the
                // tables.
                let k = &ks[if rng.gen_range(0..8u32) == 0 { 5 } else { rng.gen_range(0..5) }];
                let msg = vec![i as u8; 8 + i % 7];
                let honest = (k.verifying_key(), msg.clone(), k.sign(&msg));
                let delta = Scalar::from_u64(rng.gen_range(1..1000u64));
                items.push(match rng.gen_range(0..9u32) {
                    0 | 1 if !items.is_empty() => items[rng.gen_range(0..items.len())].clone(),
                    2 => {
                        let s = honest.2.s();
                        let s = if rng.gen::<bool>() { s + delta } else { s - delta };
                        let mut bytes = honest.2.to_bytes();
                        bytes[33..].copy_from_slice(&s.to_bytes());
                        (honest.0, msg, Signature::from_bytes(&bytes).expect("canonical s"))
                    }
                    3 => {
                        let mut bytes = honest.2.to_bytes();
                        bytes[1 + rng.gen_range(0..32usize)] ^= 1 << rng.gen_range(0..8u32);
                        (honest.0, msg, Signature::from_bytes(&bytes).expect("prefix untouched"))
                    }
                    4 => (honest.0, msg, k.sign(b"a wrong message")),
                    5 => (identity, msg, honest.2),
                    _ => honest,
                });
            }
            let expected: Vec<bool> = items.iter().map(|(vk, m, sig)| vk.verify(m, sig)).collect();
            prop_assert_eq!(&mv.check_batch(&items), &expected);
            mv.check_burst(&items);
            for ((vk, m, sig), &valid) in items.iter().zip(&expected) {
                let digest = MsgVerifier::digest(vk, &sha256(m), sig);
                prop_assert_eq!(mv.burst.contains(&digest), valid);
            }
        }
    }
}
