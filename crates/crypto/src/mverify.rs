//! The batch-first message verification layer: a verified-envelope memo
//! plus per-peer prepared tables, owned by each replica core.
//!
//! Replica hot paths (`VcCore`, `BbCore`) never call one-at-a-time
//! [`crate::schnorr::VerifyingKey::verify`] — the workspace lint's
//! `scalar-verify` rule denies it there. Instead each core owns a
//! [`MsgVerifier`]:
//!
//! * **Verified cache** — every signature that has ever verified is
//!   remembered under a content hash `(key, R, s, H(msg))`, so
//!   re-delivered or quorum-duplicated envelopes (TCP retries,
//!   adversarial duplication, UCERTs echoed by every peer) never pay the
//!   group math twice. The cache is bounded; eviction is FIFO over
//!   insertion order — a pure function of the verification sequence, so
//!   virtual-time replays evict identically.
//! * **Prepared tables** — 7-bit fixed-base comb tables (148 KiB) for the
//!   keys whose use repays the ~0.4 ms build (a collector's peers and the
//!   EA, checked several times a cast; a board's writers are not — see
//!   `BbCore`), built once at startup.
//! * **Batching** — [`MsgVerifier::check_batch`] verifies each distinct
//!   uncached `(key, R, s, H(msg))` of a queue once — a burst of `VOTE_P`s
//!   carries the same UCERT signatures in every message — and all copies
//!   share the verdict. A remainder of up to `PREPARED_BATCH_MAX` goes
//!   through the comb tables, every `s·G − e·PK` of the call summed in
//!   lockstep ([`crate::schnorr::verify_prepared`]) and compared with its
//!   `R` as it comes out affine, and so does [`MsgVerifier::check`]'s one;
//!   a larger one collapses into one MSM via
//!   [`crate::schnorr::verify_batch`], whose engine
//!   ([`crate::batch::LinearBatch`]) attributes any invalid entry to its
//!   index.
//!
//! Correctness note: the cache can only turn a *re*-verification into a
//! lookup — a signature enters it exclusively by verifying — and the
//! in-call dedup only shares a verdict between byte-equal triples, so
//! accept/reject outcomes are identical with the cache on, off, full, or
//! freshly evicted. Determinism survives because a replayed core starts
//! from an empty cache and replays the same verification sequence.

use crate::schnorr::{
    verify_batch, verify_prepared, BatchEntry, PreparedVerifier, Signature, VerifyingKey,
};
use crate::sha256::{sha256, sha256_parts};
use crate::vss::{DealerVss, SignedShare};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Default memo capacity: comfortably holds a large election's live
/// signature traffic (#ballots × quorum endorsements) while bounding a
/// flooding peer's memory to ~3 MiB of digests.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// Largest distinct fresh batch routed through the per-peer comb tables
/// instead of the one-MSM path. The tables cost a flat ~14 µs a signature
/// from eight up (every `s·G − e·PK` of the call summed in lockstep out of
/// the 8-bit generator and 7-bit peer tables); the MSM, whose commitment
/// terms carry 128-bit weights, amortizes from ~62 µs a signature at 4 to
/// ~10 µs at 128 and crosses the tables at ~56 for signatures made in
/// this process, at ~128 for signatures off the wire, which owe it a
/// square root each. 64 sits between the two: either kind is within
/// ~4 µs a signature of its better path on both sides of it (DESIGN.md
/// §12.1 has the table).
const PREPARED_BATCH_MAX: usize = 64;

/// A bounded verified-signature memo with deterministic FIFO eviction.
#[derive(Debug, Default)]
struct VerifiedCache {
    capacity: usize,
    seen: BTreeSet<[u8; 32]>,
    order: VecDeque<[u8; 32]>,
}

impl VerifiedCache {
    fn new(capacity: usize) -> VerifiedCache {
        VerifiedCache {
            capacity,
            seen: BTreeSet::new(),
            order: VecDeque::new(),
        }
    }

    fn contains(&self, digest: &[u8; 32]) -> bool {
        self.seen.contains(digest)
    }

    fn insert(&mut self, digest: [u8; 32]) {
        if self.capacity == 0 || !self.seen.insert(digest) {
            return;
        }
        self.order.push_back(digest);
        while self.order.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
    }
}

/// What a [`MsgVerifier`] did with the signatures handed to it: a pure
/// function of the call sequence, so the counts repeat exactly wherever
/// the inputs do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigCounts {
    /// Verified with group math (whatever the verdict).
    pub fresh: u64,
    /// Answered by the verified memo.
    pub cached: u64,
    /// Shared the verdict of an equal item earlier in the same batch.
    pub deduped: u64,
}

/// Per-core verification front end: cache + prepared tables + batching.
///
/// Method names deliberately avoid the `verify` identifier — the
/// `scalar-verify` lint denies that token on VC/BB message paths, and
/// this type is the sanctioned route around it.
#[derive(Debug)]
pub struct MsgVerifier {
    cache: VerifiedCache,
    prepared: BTreeMap<[u8; 33], PreparedVerifier>,
    counts: SigCounts,
}

impl std::fmt::Debug for PreparedVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PreparedVerifier({:?})", self.key())
    }
}

impl MsgVerifier {
    /// An empty verifier with the given memo capacity (0 disables the
    /// cache; verification still works, nothing is remembered).
    pub fn new(capacity: usize) -> MsgVerifier {
        MsgVerifier {
            cache: VerifiedCache::new(capacity),
            prepared: BTreeMap::new(),
            counts: SigCounts::default(),
        }
    }

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

    /// Number of memoized verified signatures (diagnostics/tests).
    pub fn cached_len(&self) -> usize {
        self.cache.seen.len()
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

    /// Verifies one signature: cache lookup, then the prepared table (or
    /// the generic path for unknown keys). Successful results are
    /// memoized.
    pub fn check(&mut self, vk: &VerifyingKey, message: &[u8], sig: &Signature) -> bool {
        let digest = Self::digest(vk, &sha256(message), sig);
        if self.cache.contains(&digest) {
            self.counts.cached += 1;
            return true;
        }
        self.counts.fresh += 1;
        let ok = match self.prepared.get(&vk.to_bytes()) {
            Some(prepared) => verify_prepared(&[(prepared, message, sig)])[0],
            None => vk.verify_inner(message, sig),
        };
        if ok {
            self.cache.insert(digest);
        }
        ok
    }

    /// Verifies a dealer-signed share (the EA-signed receipt/`msk`
    /// shares) through the same cache + table path.
    pub fn check_share(
        &mut self,
        dealer: &VerifyingKey,
        context: &[u8],
        share: &SignedShare,
    ) -> bool {
        let message = DealerVss::share_message(context, &share.share);
        self.check(dealer, &message, &share.signature)
    }

    /// Builds the [`MsgVerifier::check_batch`] item for a dealer-signed
    /// share, so callers can fold share verifications into a mixed batch.
    pub fn share_item(
        dealer: &VerifyingKey,
        context: &[u8],
        share: &SignedShare,
    ) -> (VerifyingKey, Vec<u8>, Signature) {
        (
            *dealer,
            DealerVss::share_message(context, &share.share),
            share.signature,
        )
    }

    /// Verifies a queue of signatures in one batch: cached entries are
    /// free, equal entries are verified once, and the distinct remainder
    /// goes through the comb tables (small) or a single MSM that
    /// attributes each invalid entry (large). Returns one verdict per
    /// input, in order; valid entries are memoized.
    pub fn check_batch(&mut self, items: &[(VerifyingKey, Vec<u8>, Signature)]) -> Vec<bool> {
        let mut verdicts = vec![true; items.len()];
        // Item index and digest of the first occurrence of every distinct
        // uncached triple, and the later copies with the position (in
        // `fresh`) of the occurrence whose verdict they share.
        let mut fresh: Vec<(usize, [u8; 32])> = Vec::new();
        let mut copies: Vec<(usize, usize)> = Vec::new();
        let mut first_at: BTreeMap<[u8; 32], usize> = BTreeMap::new();
        for (i, (vk, msg, sig)) in items.iter().enumerate() {
            let digest = Self::digest(vk, &sha256(msg), sig);
            if self.cache.contains(&digest) {
                self.counts.cached += 1;
                continue;
            }
            match first_at.entry(digest) {
                Entry::Vacant(slot) => {
                    slot.insert(fresh.len());
                    fresh.push((i, digest));
                }
                Entry::Occupied(slot) => copies.push((i, *slot.get())),
            }
        }
        self.counts.fresh += fresh.len() as u64;
        self.counts.deduped += copies.len() as u64;

        let tables: Option<Vec<&PreparedVerifier>> = if fresh.len() <= PREPARED_BATCH_MAX {
            fresh
                .iter()
                .map(|&(i, ..)| self.prepared.get(&items[i].0.to_bytes()))
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
                    .map(|(table, &(i, ..))| (table, items[i].1.as_slice(), &items[i].2))
                    .collect();
                verify_prepared(&entries)
            }
            None => {
                let entries: Vec<BatchEntry<'_>> = fresh
                    .iter()
                    .map(|&(i, ..)| (items[i].0, items[i].1.as_slice(), items[i].2))
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
        for (&(i, digest), &ok) in fresh.iter().zip(&fresh_ok) {
            verdicts[i] = ok;
            if ok {
                self.cache.insert(digest);
            }
        }
        for (i, pos) in copies {
            verdicts[i] = fresh_ok[pos];
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

    #[test]
    fn check_matches_plain_verify_and_memoizes() {
        let key = keys(1, 1).remove(0);
        let mut mv = MsgVerifier::new(16);
        mv.prepare(&key.verifying_key());
        let sig = key.sign(b"m");
        assert!(mv.check(&key.verifying_key(), b"m", &sig));
        assert_eq!(mv.cached_len(), 1);
        // Second delivery: memo hit (still true, nothing re-inserted).
        assert!(mv.check(&key.verifying_key(), b"m", &sig));
        assert_eq!(mv.cached_len(), 1);
        assert!(!mv.check(&key.verifying_key(), b"n", &sig));
        assert_eq!(mv.cached_len(), 1, "failures are not cached");
    }

    #[test]
    fn check_batch_verdicts_align_with_individual() {
        let ks = keys(3, 2);
        let mut mv = MsgVerifier::new(64);
        let mut items = Vec::new();
        for (i, k) in ks.iter().enumerate() {
            let msg = vec![i as u8; 12];
            let sig = k.sign(&msg);
            items.push((k.verifying_key(), msg, sig));
        }
        // Forge the middle one.
        items[1].2 = ks[1].sign(b"something else");
        assert_eq!(mv.check_batch(&items), vec![true, false, true]);
        // The two valid ones are now cached; a re-batch still agrees.
        assert_eq!(mv.cached_len(), 2);
        assert_eq!(mv.check_batch(&items), vec![true, false, true]);
    }

    /// The burst shape of the cast path: four `VOTE_P`s repeat one
    /// UCERT's signatures. Equal triples cost one verification.
    #[test]
    fn equal_items_in_one_batch_are_verified_once() {
        let ks = keys(3, 4);
        let mut mv = MsgVerifier::new(64);
        for k in &ks {
            mv.prepare(&k.verifying_key());
        }
        let item = |k: &SigningKey, m: &[u8]| (k.verifying_key(), m.to_vec(), k.sign(m));
        let items = vec![
            item(&ks[0], b"ucert"),
            item(&ks[1], b"ucert"),
            item(&ks[0], b"ucert"),
            item(&ks[2], b"share"),
        ];
        assert_eq!(mv.check_batch(&items), vec![true; 4]);
        let counts = mv.take_counts();
        assert_eq!((counts.fresh, counts.deduped, counts.cached), (3, 1, 0));
        assert_eq!(mv.cached_len(), 3);
        assert_eq!(mv.check_batch(&items), vec![true; 4]);
        let counts = mv.take_counts();
        assert_eq!((counts.fresh, counts.deduped, counts.cached), (0, 0, 4));
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let key = keys(1, 3).remove(0);
        let mut mv = MsgVerifier::new(2);
        let sigs: Vec<(Vec<u8>, _)> = (0..3u8)
            .map(|i| {
                let m = vec![i; 4];
                let s = key.sign(&m);
                (m, s)
            })
            .collect();
        for (m, s) in &sigs {
            assert!(mv.check(&key.verifying_key(), m, s));
        }
        assert_eq!(mv.cached_len(), 2);
        // Oldest (msg 0) evicted; re-checking re-verifies and re-inserts,
        // evicting msg 1 — outcomes unchanged throughout.
        assert!(mv.check(&key.verifying_key(), &sigs[0].0, &sigs[0].1));
        assert_eq!(mv.cached_len(), 2);
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
        /// memo hits, fresh items, copies of earlier items (valid or
        /// forged), forgeries, an `R` off the curve, an identity key —
        /// on the comb-table path (few distinct fresh items, every key
        /// prepared) and on the MSM path (many, or an unprepared key).
        #[test]
        fn prop_check_batch_equals_scalar_checks(
            seed in any::<u64>(),
            n in 1usize..64,
            prepare in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ks: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
            let identity = VerifyingKey::from_bytes(&[0u8; 33]).expect("identity encoding");
            let mut mv = MsgVerifier::new(256);
            if prepare {
                for k in &ks {
                    mv.prepare(&k.verifying_key());
                }
                mv.prepare(&identity);
            }
            let mut items: Vec<(VerifyingKey, Vec<u8>, Signature)> = Vec::new();
            for i in 0..n {
                let k = &ks[rng.gen_range(0..ks.len())];
                let msg = vec![i as u8; 8 + i % 7];
                let honest = (k.verifying_key(), msg.clone(), k.sign(&msg));
                items.push(match rng.gen_range(0..8u32) {
                    0 => {
                        prop_assert!(mv.check(&honest.0, &honest.1, &honest.2));
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
            mv.take_counts();
            prop_assert_eq!(&mv.check_batch(&items), &expected);
            let counts = mv.take_counts();
            prop_assert_eq!(counts.fresh + counts.cached + counts.deduped, n as u64);
            // Valid items are now memo hits; invalid ones fail again.
            prop_assert_eq!(&mv.check_batch(&items), &expected);
        }

        /// A collector's burst on the lockstep table path: four peer keys
        /// and the EA key prepared, one key not, copies and corruptions
        /// (`s ± δ`, a flipped `R` byte, a wrong message, the identity
        /// key). Verdicts are the per-entry scalar check's, and exactly
        /// the valid entries enter the memo.
        #[test]
        fn prop_lockstep_verdicts_equal_per_entry_verify(
            seed in any::<u64>(),
            n in 1usize..=24,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ks: Vec<SigningKey> = (0..6).map(|_| SigningKey::generate(&mut rng)).collect();
            let identity = VerifyingKey::from_bytes(&[0u8; 33]).expect("identity encoding");
            let mut mv = MsgVerifier::new(256);
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
            for ((vk, m, sig), &valid) in items.iter().zip(&expected) {
                let digest = MsgVerifier::digest(vk, &sha256(m), sig);
                prop_assert_eq!(mv.cache.contains(&digest), valid);
            }
        }
    }
}
