//! Schnorr signatures over secp256k1 with deterministic nonces.
//!
//! The EA "generates all the public/private key pairs for all the system
//! components … without relying on external PKI support" (§III-D). These
//! keys sign ENDORSEMENT messages (from which UCERTs are assembled), receipt
//! shares dealt by the EA, vote-set submissions to the BB, and trustee posts.
//!
//! Verification comes in three shapes, fastest first:
//!
//! * [`verify_batch`] — random-linear-combination batch verification:
//!   `n` signatures collapse into one multi-scalar multiplication of the
//!   [`LinearBatch`] engine, which names the invalid entries on failure.
//! * [`PreparedVerifier`] — a per-peer fixed-base comb table for the
//!   public key, built once at startup: with the generator's table, every
//!   `s·G − e·PK` of a burst is summed in lockstep out of table lookups
//!   ([`verify_prepared`]) instead of a generic double-and-add ladder.
//! * [`VerifyingKey::verify`] — the plain one-shot path (setup, audit,
//!   tests), carrying the `crypto.verify_ns` profiling hook.

use crate::batch::LinearBatch;
use crate::curve::{CombBatch, FixedBase, Point, PEER_COMB_WINDOW};
use crate::field::{Fp, Scalar};
use crate::hmac::HmacKey;
use crate::sha256::sha256_parts;

/// A Schnorr verification (public) key, carrying its compressed
/// encoding.
///
/// The encoding is computed once at construction: serializing a
/// projective point costs a field inversion, and every challenge hash,
/// cache digest, and table lookup wants these same 33 bytes — keys are
/// long-lived and hashed constantly, so the copy pays for itself on the
/// first verification.
#[derive(Clone, Copy, Debug)]
pub struct VerifyingKey {
    point: Point,
    enc: [u8; 33],
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        // The encoding is canonical (compressed SEC1 / all-zero identity).
        self.enc == other.enc
    }
}

impl Eq for VerifyingKey {}

impl std::hash::Hash for VerifyingKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.enc.hash(state);
    }
}

impl VerifyingKey {
    pub(crate) fn from_point(point: Point) -> VerifyingKey {
        // Held normalised: the encoding needs the affine coordinates
        // anyway, and a batch verification then adds the key without
        // inverting for it again.
        let affine = Point::batch_normalize(&[point])[0];
        VerifyingKey {
            point: affine.to_point(),
            enc: affine.to_bytes(),
        }
    }
}

/// A Schnorr signing (private) key, with the HMAC key its nonces are
/// drawn under, pads hashed once.
#[derive(Clone, Copy)]
pub struct SigningKey {
    sk: Scalar,
    vk: VerifyingKey,
    nonce_key: HmacKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(vk: {:?})", self.vk)
    }
}

/// A Schnorr signature `(R, s)` with `s·G = R + e·PK`, `e = H(R‖PK‖m)`.
///
/// `R` is held normalised from the moment the signature exists: its 33
/// encoded bytes, which is what every challenge hash, memo digest,
/// comparison and wire encoding wants, so none of them pays a field
/// inversion. A signature made in this process also keeps the affine `y`
/// it had in hand when it encoded `R`, which spares batch verification
/// the square root; one parsed from the wire has only the bytes, and the
/// point is recovered when a verification needs it — which the
/// batch/cache layers usually avoid entirely.
#[derive(Clone, Copy, Debug)]
pub struct Signature {
    /// Commitment `R = k·G`, compressed.
    r: [u8; 33],
    /// The affine `y` of `R`, when signing computed it.
    r_y: Option<Fp>,
    /// Response `s = k + e·sk`.
    s: Scalar,
}

impl PartialEq for Signature {
    fn eq(&self, other: &Signature) -> bool {
        // `r_y` is determined by `r`; a parsed copy equals the original.
        self.r == other.r && self.s == other.s
    }
}

impl Eq for Signature {}

impl Signature {
    /// Serializes as 65 bytes (`R ‖ s`).
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..33].copy_from_slice(&self.r);
        out[33..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Parses the 65-byte encoding.
    ///
    /// Only the structural shape of `R` is checked here (a valid SEC1
    /// prefix byte); whether the x-coordinate is actually on the curve
    /// is decided at first verification, where a bad point simply fails
    /// like any other forgery.
    pub fn from_bytes(bytes: &[u8; 65]) -> Option<Signature> {
        let mut r = [0u8; 33];
        r.copy_from_slice(&bytes[..33]);
        match r[0] {
            0x02 | 0x03 => {}
            0x00 if r[1..].iter().all(|&b| b == 0) => {} // identity encoding
            _ => return None,
        }
        let mut sb = [0u8; 32];
        sb.copy_from_slice(&bytes[33..]);
        Some(Signature {
            r,
            r_y: None,
            s: Scalar::from_bytes(&sb)?,
        })
    }

    /// The 33-byte compressed encoding of `R` (a copy of the stored
    /// bytes).
    pub fn r_bytes(&self) -> [u8; 33] {
        self.r
    }

    /// The commitment point; `None` when the bytes do not name a curve
    /// point (such a signature can never verify). Costs a square root
    /// for a signature parsed from the wire, a curve-equation check for
    /// one made in this process.
    pub fn r_point(&self) -> Option<Point> {
        match self.r_y {
            Some(y) => {
                let mut xb = [0u8; 32];
                xb.copy_from_slice(&self.r[1..]);
                Point::from_affine(Fp::from_bytes(&xb)?, y)
            }
            None => Point::from_bytes(&self.r),
        }
    }

    /// The response scalar `s`.
    pub fn s(&self) -> Scalar {
        self.s
    }
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> SigningKey {
        loop {
            let sk = Scalar::random(rng);
            if !sk.is_zero() {
                return SigningKey::from_scalar(sk);
            }
        }
    }

    /// Builds a key pair from an existing secret scalar.
    ///
    /// # Panics
    /// Panics if `sk` is zero.
    pub fn from_scalar(sk: Scalar) -> SigningKey {
        assert!(!sk.is_zero(), "secret key must be nonzero");
        SigningKey {
            sk,
            vk: VerifyingKey::from_point(Point::mul_generator(&sk)),
            nonce_key: HmacKey::new(&sk.to_bytes()),
        }
    }

    /// The corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.vk
    }

    /// Signs a message (deterministic RFC-6979-style nonce): the
    /// one-message form of [`SigningKey::sign_many`].
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_many(&[message])[0]
    }

    /// Signs every message of a slice, byte for byte as [`SigningKey::sign`]
    /// signs each: all commitments `kᵢ·G` first, multiplied together and
    /// affine out of the batched comb ([`FixedBase::mul_many`] — for one
    /// message, the comb's own mixed additions and the one inversion of
    /// signing), then the challenges and responses.
    pub fn sign_many<M: AsRef<[u8]>>(&self, messages: &[M]) -> Vec<Signature> {
        // kᵢ = HMAC(sk, msgᵢ) reduced — deterministic, never reused across
        // distinct messages, bias negligible.
        let nonces: Vec<Scalar> = messages
            .iter()
            .map(|message| {
                let k = Scalar::from_bytes_reduce(
                    &self
                        .nonce_key
                        .mac(&[b"ddemos/schnorr/nonce", message.as_ref()]),
                );
                if k.is_zero() {
                    Scalar::ONE
                } else {
                    k
                }
            })
            .collect();
        // Keep both forms of each normalised `R`.
        FixedBase::generator()
            .mul_many_affine(&nonces)
            .into_iter()
            .zip(messages)
            .zip(nonces)
            .map(|((commitment, message), k)| {
                let r = commitment.to_bytes();
                let e = challenge(&r, &self.vk, message.as_ref());
                Signature {
                    r,
                    r_y: commitment.coords().map(|(_, y)| y),
                    s: k + e * self.sk,
                }
            })
            .collect()
    }
}

impl VerifyingKey {
    /// Verifies a signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        // Profiling hook: one atomic load when off (the default).
        let _t = ddemos_obs::scoped_ns("crypto.verify_ns", "schnorr");
        self.verify_inner(message, sig)
    }

    /// The hook-free verification core shared by the batch fallback and
    /// the cache layer (so batched paths never inflate the one-at-a-time
    /// `crypto.verify_ns` sample count).
    pub(crate) fn verify_inner(&self, message: &[u8], sig: &Signature) -> bool {
        if self.point.is_identity() {
            return false;
        }
        let e = challenge(&sig.r, self, message);
        // s·G − e·PK == R, via one Shamir double-scalar multiplication;
        // comparing compressed bytes sidesteps decompressing a wire R.
        Point::double_mul(&sig.s, &Point::generator(), &-e, &self.point).to_bytes() == sig.r
    }

    /// Serializes as 33 bytes (a copy of the cached canonical encoding).
    pub fn to_bytes(&self) -> [u8; 33] {
        self.enc
    }

    /// Parses a 33-byte encoding. The parse only accepts canonical
    /// encodings, so the input bytes double as the cached serialization.
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<VerifyingKey> {
        Point::from_bytes(bytes).map(|point| VerifyingKey { point, enc: *bytes })
    }
}

fn challenge(r_bytes: &[u8; 33], vk: &VerifyingKey, message: &[u8]) -> Scalar {
    Scalar::from_bytes_reduce(&sha256_parts(&[
        b"ddemos/schnorr/v1",
        r_bytes,
        &vk.enc,
        message,
    ]))
}

// ---------------------------------------------------------------------
// Per-peer prepared verification
// ---------------------------------------------------------------------

/// A verification key with a precomputed fixed-base comb table, built
/// once per peer at startup at `PEER_COMB_WINDOW` (signed 7-bit
/// digits, 148 KiB): `e·PK` becomes table lookups, and together with the
/// generator comb the whole check is add-only. [`verify_prepared`] checks
/// any number of signatures against such tables in lockstep.
pub struct PreparedVerifier {
    vk: VerifyingKey,
    table: FixedBase,
}

impl PreparedVerifier {
    /// Builds the comb table (~2.4k affine additions, amortized over
    /// every later verification against this peer).
    pub fn new(vk: &VerifyingKey) -> PreparedVerifier {
        PreparedVerifier {
            vk: *vk,
            table: FixedBase::with_window(&vk.point, PEER_COMB_WINDOW),
        }
    }

    /// The key this table serves.
    pub fn key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// The key's comb table.
    pub fn table(&self) -> &FixedBase {
        &self.table
    }
}

/// Verifies signatures against their signers' prepared tables, one
/// verdict an entry, in order (hook-free; the callers are the batched
/// message paths). Every `s·G − e·PK` goes into one [`CombBatch`], whose
/// outputs come out affine, so each is encoded and compared with its `R`
/// bytes at no inversion of its own. An identity key verifies nothing.
pub fn verify_prepared(entries: &[(&PreparedVerifier, &[u8], &Signature)]) -> Vec<bool> {
    let mut batch = CombBatch::new();
    for (prepared, message, sig) in entries {
        let e = challenge(&sig.r, &prepared.vk, message);
        batch.push(&[(FixedBase::generator(), sig.s), (&prepared.table, -e)]);
    }
    batch
        .evaluate_affine()
        .into_iter()
        .zip(entries)
        .map(|(r, (prepared, _, sig))| !prepared.vk.point.is_identity() && r.to_bytes() == sig.r)
        .collect()
}

// ---------------------------------------------------------------------
// Batch verification
// ---------------------------------------------------------------------

/// One batch entry: `(key, message, signature)`.
pub type BatchEntry<'a> = (VerifyingKey, &'a [u8], Signature);

/// Enters `(vk, message, sig)` into `batch` under `label` as
/// `R + e·PK − s·G = 0`: `e = H(R‖PK‖m)` binds the message, and `PK` is a
/// shared base, so `n` signatures from `k` signers are an MSM over
/// `n + k + 1` points. An `R` that names no point, or an identity key, is
/// rejected without group math.
pub fn push_signature(batch: &mut LinearBatch, (vk, message, sig): &BatchEntry<'_>, label: usize) {
    match sig.r_point() {
        Some(r) if !vk.point.is_identity() => {
            let pk = batch.shared(&vk.point);
            let e = batch.scalar(challenge(&sig.r, vk, message));
            let s = batch.scalar(sig.s);
            batch.push(label, r, [(pk, e), (LinearBatch::G, -s)]);
        }
        _ => batch.reject(label),
    }
}

/// Verifies `n` signatures as one multi-scalar multiplication, each
/// entry [`push_signature`]d under its index.
///
/// # Errors
/// The sorted indices of every invalid entry, so a single forged
/// signature is still attributed to its sender.
pub fn verify_batch(entries: &[BatchEntry<'_>]) -> Result<(), Vec<usize>> {
    let _t = ddemos_obs::scoped_ns("crypto.verify_batch_ns", "schnorr");
    let mut batch = LinearBatch::new(entries.len() + 1);
    for (label, entry) in entries.iter().enumerate() {
        push_signature(&mut batch, entry, label);
    }
    batch.check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sign_verify() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello");
        assert!(key.verifying_key().verify(b"hello", &sig));
        assert!(!key.verifying_key().verify(b"hellp", &sig));
    }

    #[test]
    fn wrong_key_rejects() {
        let mut rng = StdRng::seed_from_u64(2);
        let key1 = SigningKey::generate(&mut rng);
        let key2 = SigningKey::generate(&mut rng);
        let sig = key1.sign(b"msg");
        assert!(!key2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = SigningKey::generate(&mut rng);
        assert_eq!(key.sign(b"m"), key.sign(b"m"));
        assert_ne!(key.sign(b"m"), key.sign(b"n"));
    }

    #[test]
    fn sign_many_matches_per_message_sign() {
        let mut rng = StdRng::seed_from_u64(16);
        let key = SigningKey::generate(&mut rng);
        let messages: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; usize::from(i) * 7]).collect();
        let many = key.sign_many(&messages);
        assert_eq!(many.len(), messages.len());
        for (message, sig) in messages.iter().zip(&many) {
            let one = key.sign(message);
            assert_eq!(sig.to_bytes(), one.to_bytes());
            // The in-process extras agree too, not only the wire bytes.
            assert_eq!(sig.r_y, one.r_y);
            assert!(key.verifying_key().verify(message, sig));
        }
        assert!(key.sign_many::<&[u8]>(&[]).is_empty());
    }

    /// Bit-flips the serialized signature (response low byte, then the
    /// commitment x-coordinate) — both re-parse structurally but must
    /// fail verification.
    #[test]
    fn tampered_signature_rejects() {
        let mut rng = StdRng::seed_from_u64(4);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[64] ^= 1; // s
        let forged = Signature::from_bytes(&bytes).expect("still canonical");
        assert!(!key.verifying_key().verify(b"msg", &forged));
        let mut bytes = sig.to_bytes();
        bytes[20] ^= 1; // R x-coordinate
        let forged = Signature::from_bytes(&bytes).expect("structurally valid");
        assert!(!key.verifying_key().verify(b"msg", &forged));
    }

    #[test]
    fn bad_r_prefix_rejected_at_parse() {
        let mut rng = StdRng::seed_from_u64(14);
        let key = SigningKey::generate(&mut rng);
        let mut bytes = key.sign(b"msg").to_bytes();
        bytes[0] = 0x05;
        assert!(Signature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"roundtrip");
        let back = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(back, sig);
        assert_eq!(back.r_point(), sig.r_point());
        let vk = VerifyingKey::from_bytes(&key.verifying_key().to_bytes()).unwrap();
        assert_eq!(vk, key.verifying_key());
    }

    /// `R` is stored encoded: the struct must not outgrow the 136 bytes
    /// it had with a projective `R` (ballot rows and UCERTs hold
    /// thousands), and a signature made here decompresses to the point a
    /// parsed copy does — without the square root.
    #[test]
    fn signature_is_compact_and_keeps_its_point() {
        assert!(std::mem::size_of::<Signature>() <= 136);
        let mut rng = StdRng::seed_from_u64(15);
        let sig = SigningKey::generate(&mut rng).sign(b"compact");
        assert!(sig.r_y.is_some());
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(parsed.r_y.is_none());
        assert_eq!(sig.r_point().unwrap().to_bytes(), sig.r_bytes());
        assert_eq!(sig.r_point(), parsed.r_point());
    }

    #[test]
    fn identity_key_rejected() {
        let vk = VerifyingKey::from_point(Point::IDENTITY);
        let mut rng = StdRng::seed_from_u64(6);
        let sig = SigningKey::generate(&mut rng).sign(b"x");
        assert!(!vk.verify(b"x", &sig));
    }

    #[test]
    fn prepared_verifier_matches_plain() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = SigningKey::generate(&mut rng);
        let prepared = PreparedVerifier::new(&key.verifying_key());
        let sig = key.sign(b"table");
        let other = SigningKey::generate(&mut rng).sign(b"table");
        let entries: [(&PreparedVerifier, &[u8], &Signature); 3] = [
            (&prepared, b"table", &sig),
            (&prepared, b"tablf", &sig),
            (&prepared, b"table", &other),
        ];
        assert_eq!(verify_prepared(&entries), [true, false, false]);
        for entry in entries {
            let plain = key.verifying_key().verify(entry.1, entry.2);
            assert_eq!(verify_prepared(&[entry]), [plain]);
        }
        assert!(verify_prepared(&[]).is_empty());
    }

    #[test]
    fn batch_accepts_valid_mixed_keys() {
        let mut rng = StdRng::seed_from_u64(8);
        let keys: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 24]).collect();
        let entries: Vec<BatchEntry<'_>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let key = &keys[i % keys.len()];
                (key.verifying_key(), m.as_slice(), key.sign(m))
            })
            .collect();
        assert_eq!(verify_batch(&entries), Ok(()));
        assert_eq!(verify_batch(&entries[..1]), Ok(()));
        assert_eq!(verify_batch(&[]), Ok(()));
    }

    #[test]
    fn batch_attributes_every_forgery() {
        let mut rng = StdRng::seed_from_u64(9);
        let keys: Vec<SigningKey> = (0..3).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 16]).collect();
        let mut entries: Vec<BatchEntry<'_>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let key = &keys[i % keys.len()];
                (key.verifying_key(), m.as_slice(), key.sign(m))
            })
            .collect();
        // Forge entries 2 and 7: swap in signatures over other messages.
        entries[2].2 = keys[2 % keys.len()].sign(b"not msg 2");
        entries[7].2 = keys[7 % keys.len()].sign(b"not msg 7");
        assert_eq!(verify_batch(&entries), Err(vec![2, 7]));
    }

    /// `s + δ` on one signature and `s − δ` on another cancel in an
    /// equal-weight sum, in the whole batch and in the half that holds
    /// both; the batch rejects them and names exactly those two.
    #[test]
    fn batch_rejects_a_cancelling_pair() {
        let mut rng = StdRng::seed_from_u64(12);
        let keys: Vec<SigningKey> = (0..2).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 20]).collect();
        let mut entries: Vec<BatchEntry<'_>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let key = &keys[i % keys.len()];
                (key.verifying_key(), m.as_slice(), key.sign(m))
            })
            .collect();
        assert_eq!(verify_batch(&entries), Ok(()));
        let delta = Scalar::random(&mut rng);
        entries[1].2.s += delta;
        entries[2].2.s -= delta;
        assert_eq!(verify_batch(&entries), Err(vec![1, 2]));
    }

    #[test]
    fn batch_attributes_structural_failures() {
        let mut rng = StdRng::seed_from_u64(10);
        let key = SigningKey::generate(&mut rng);
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut entries: Vec<BatchEntry<'_>> = msgs
            .iter()
            .map(|m| (key.verifying_key(), m.as_slice(), key.sign(m)))
            .collect();
        // An identity key and an R that decompresses to nothing.
        entries[0].0 = VerifyingKey::from_point(Point::IDENTITY);
        let mut bytes = entries[3].2.to_bytes();
        bytes[20] ^= 1;
        entries[3].2 = Signature::from_bytes(&bytes).expect("structurally valid");
        let err = verify_batch(&entries).unwrap_err();
        assert!(err.contains(&0) && err.contains(&3), "got {err:?}");
        assert!(!err.contains(&1) && !err.contains(&2), "got {err:?}");
    }

    /// At the size where the MSM sorts thousands of points a window: one
    /// corrupted response, commitment, key or message anywhere is named,
    /// and nothing else is.
    #[test]
    fn batch_names_any_single_corruption_at_scale() {
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..600u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let entries: Vec<BatchEntry<'_>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let key = &keys[i % keys.len()];
                (key.verifying_key(), m.as_slice(), key.sign(m))
            })
            .collect();
        assert_eq!(verify_batch(&entries), Ok(()));
        let other = keys[0].sign(b"another commitment");
        let other_key = SigningKey::generate(&mut rng).verifying_key();
        type Corruption<'a> = &'a dyn Fn(&mut BatchEntry<'_>);
        let corruptions: [(&str, Corruption<'_>); 4] = [
            ("s", &|entry| entry.2.s += Scalar::ONE),
            ("R", &|entry| {
                (entry.2.r, entry.2.r_y) = (other.r, other.r_y)
            }),
            ("key", &|entry| entry.0 = other_key),
            ("message", &|entry| entry.1 = b"another message"),
        ];
        let random = 1 + rng.gen_range(0..entries.len() - 2);
        for at in [0, entries.len() - 1, random] {
            for (what, corrupt) in &corruptions {
                let mut bad = entries.clone();
                corrupt(&mut bad[at]);
                assert_eq!(verify_batch(&bad), Err(vec![at]), "{what} of entry {at}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Batch-vs-individual equivalence, accepting side: a batch of
        /// honestly signed entries (any size, any signer mix) accepts,
        /// matching what the scalar loop would conclude.
        #[test]
        fn prop_batch_accepts_what_scalar_accepts(
            seed in any::<u64>(),
            n in 1usize..24,
            signers in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: Vec<SigningKey> =
                (0..signers).map(|_| SigningKey::generate(&mut rng)).collect();
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8 + i % 5]).collect();
            let entries: Vec<BatchEntry<'_>> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let key = &keys[i % keys.len()];
                    (key.verifying_key(), m.as_slice(), key.sign(m))
                })
                .collect();
            for (vk, m, sig) in &entries {
                prop_assert!(vk.verify(m, sig));
            }
            prop_assert_eq!(verify_batch(&entries), Ok(()));
        }

        /// Batch-vs-individual equivalence, rejecting side: any single
        /// forged signature in an otherwise valid batch is detected and
        /// attributed to exactly its index.
        #[test]
        fn prop_single_forgery_is_attributed(
            seed in any::<u64>(),
            n in 2usize..24,
            bad in any::<usize>(),
        ) {
            let bad = bad % n;
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: Vec<SigningKey> =
                (0..3).map(|_| SigningKey::generate(&mut rng)).collect();
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 12]).collect();
            let mut entries: Vec<BatchEntry<'_>> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let key = &keys[i % keys.len()];
                    (key.verifying_key(), m.as_slice(), key.sign(m))
                })
                .collect();
            // Forge: a signature over a different message than the entry's.
            entries[bad].2 = keys[bad % keys.len()].sign(b"some other message");
            for (i, (vk, m, sig)) in entries.iter().enumerate() {
                prop_assert_eq!(vk.verify(m, sig), i != bad);
            }
            prop_assert_eq!(verify_batch(&entries), Err(vec![bad]));
        }
    }
}
