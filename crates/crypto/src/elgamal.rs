//! Lifted (exponential) ElGamal over secp256k1.
//!
//! D-DEMOS commits to option encodings with a vector of lifted ElGamal
//! ciphertexts (§III-B): the encoding of option `i` out of `m` is the unit
//! vector `e⃗ᵢ`, committed element-wise as `Enc(pk, bit)`. The scheme is
//! *perfectly binding* (a ciphertext determines its plaintext) and
//! computationally hiding under DDH, and it is additively homomorphic, which
//! is what the tally aggregation relies on.
//!
//! Nobody ever decrypts with the secret key in D-DEMOS — openings travel as
//! verifiable secret shares — but decryption (with a baby-step/giant-step
//! discrete log for small messages) is provided for completeness and is used
//! to cross-check homomorphic tallies in tests.

use crate::batch::LinearBatch;
use crate::curve::{CombBatch, FixedBase, Point, WIDE_COMB_WINDOW};
use crate::field::Scalar;
use std::collections::HashMap;

/// An ElGamal public key (`pk = sk·G`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublicKey(pub Point);

/// A public key with a precomputed [`FixedBase`] comb table, for
/// workloads that exponentiate against the same election key thousands of
/// times (EA ballot generation, the prover's first moves). The table is
/// the generator's width, signed 8-bit digits (264 KiB): building it
/// costs about fifteen generic multiplications; each subsequent `pk^r`
/// is ~33 table additions, ~5× cheaper than the generic ladder, and
/// cheaper again in a [`CombBatch`].
#[derive(Clone, Debug)]
pub struct PreparedKey {
    pk: PublicKey,
    table: FixedBase,
}

impl PreparedKey {
    /// Precomputes the comb table for `pk`.
    pub fn new(pk: &PublicKey) -> PreparedKey {
        PreparedKey {
            pk: *pk,
            table: FixedBase::with_window(&pk.0, WIDE_COMB_WINDOW),
        }
    }

    /// The underlying public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The key's comb table: `k·pk` by [`FixedBase::mul`], or as a term
    /// of a [`CombBatch`].
    pub fn table(&self) -> &FixedBase {
        &self.table
    }

    /// Appends the two points of `Enc(pk, m; r)` — `r·G` and
    /// `m·G + r·pk` — to `batch`; [`Ciphertext::next_from`] reads them
    /// back from its evaluation.
    pub fn encrypt_into<'a>(&'a self, m: &Scalar, r: &Scalar, batch: &mut CombBatch<'a>) {
        let g = FixedBase::generator();
        batch.push(&[(g, *r)]);
        batch.push(&[(g, *m), (&self.table, *r)]);
    }

    /// Encrypts the scalar message `m` with explicit randomness `r`
    /// (table-accelerated [`encrypt_with`]): a batch of one
    /// [`PreparedKey::encrypt_into`].
    pub fn encrypt_with(&self, m: &Scalar, r: &Scalar) -> Ciphertext {
        let mut batch = CombBatch::new();
        self.encrypt_into(m, r, &mut batch);
        Ciphertext::next_from(&mut batch.evaluate().into_iter())
    }
}

/// An ElGamal secret key.
#[derive(Clone, Copy)]
pub struct SecretKey(pub Scalar);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(..)")
    }
}

/// Generates a fresh keypair.
pub fn keygen<R: rand::RngCore + ?Sized>(rng: &mut R) -> (SecretKey, PublicKey) {
    let sk = Scalar::random(rng);
    (SecretKey(sk), PublicKey(Point::mul_generator(&sk)))
}

/// A lifted ElGamal ciphertext `(a, b) = (r·G, m·G + r·pk)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    /// `r·G`
    pub a: Point,
    /// `m·G + r·pk`
    pub b: Point,
}

impl Ciphertext {
    /// The encryption of zero with zero randomness (homomorphic identity).
    pub const IDENTITY: Ciphertext = Ciphertext {
        a: Point::IDENTITY,
        b: Point::IDENTITY,
    };

    /// Homomorphic addition: `Enc(m₁;r₁) ⊕ Enc(m₂;r₂) = Enc(m₁+m₂; r₁+r₂)`.
    pub fn add(&self, other: &Ciphertext) -> Ciphertext {
        Ciphertext {
            a: self.a + other.a,
            b: self.b + other.b,
        }
    }

    /// The next ciphertext of an evaluated [`CombBatch`]
    /// ([`PreparedKey::encrypt_into`]).
    ///
    /// # Panics
    /// Panics if `points` runs out.
    pub fn next_from(points: &mut impl Iterator<Item = Point>) -> Ciphertext {
        let mut next = || points.next().expect("two points a ciphertext");
        Ciphertext {
            a: next(),
            b: next(),
        }
    }

    /// Serializes as 66 bytes (one shared inversion for both points).
    pub fn to_bytes(&self) -> [u8; 66] {
        let encoded = Point::batch_to_bytes(&[self.a, self.b]);
        let mut out = [0u8; 66];
        out[..33].copy_from_slice(&encoded[0]);
        out[33..].copy_from_slice(&encoded[1]);
        out
    }

    /// Parses the encoding produced by [`Ciphertext::to_bytes`].
    pub fn from_bytes(bytes: &[u8; 66]) -> Option<Ciphertext> {
        let mut a = [0u8; 33];
        let mut b = [0u8; 33];
        a.copy_from_slice(&bytes[..33]);
        b.copy_from_slice(&bytes[33..]);
        Some(Ciphertext {
            a: Point::from_bytes(&a)?,
            b: Point::from_bytes(&b)?,
        })
    }
}

impl std::iter::Sum for Ciphertext {
    fn sum<I: Iterator<Item = Ciphertext>>(iter: I) -> Ciphertext {
        iter.fold(Ciphertext::IDENTITY, |acc, ct| acc.add(&ct))
    }
}

/// Encrypts the scalar message `m` with explicit randomness `r`.
pub fn encrypt_with(pk: &PublicKey, m: &Scalar, r: &Scalar) -> Ciphertext {
    Ciphertext {
        a: Point::mul_generator(r),
        b: Point::mul_generator(m) + pk.0.mul(r),
    }
}

/// Encrypts a small integer message, returning the ciphertext and the
/// randomness used (the *opening*, which D-DEMOS secret-shares to trustees).
pub fn encrypt_u64<R: rand::RngCore + ?Sized>(
    pk: &PublicKey,
    m: u64,
    rng: &mut R,
) -> (Ciphertext, Scalar) {
    let r = Scalar::random(rng);
    (encrypt_with(pk, &Scalar::from_u64(m), &r), r)
}

/// Checks an opening `(m, r)` against a ciphertext: the pair opens `ct` iff
/// `ct = (r·G, m·G + r·pk)`. This is the verification auditors run on
/// published tally openings.
pub fn verify_opening(pk: &PublicKey, ct: &Ciphertext, m: &Scalar, r: &Scalar) -> bool {
    ct.a == Point::mul_generator(r) && ct.b == Point::mul_generator(m) + pk.0.mul(r)
}

/// The claim that `(m, r)` opens a ciphertext.
pub type Opening = (Ciphertext, Scalar, Scalar);

/// Enters an [`Opening`] into `batch` under `label`: `a − r·G = 0` and
/// `b − m·G − r·pk = 0`, with `pk` the key's shared base
/// ([`LinearBatch::shared`]).
pub fn push_opening(batch: &mut LinearBatch, pk: usize, (ct, m, r): &Opening, label: usize) {
    let (g, m, r) = (LinearBatch::G, batch.scalar(*m), batch.scalar(*r));
    batch.push(label, ct.a, [(g, -r)]);
    batch.push(label, ct.b, [(g, -m), (pk, -r)]);
}

/// Verifies many openings at once: equal, but for a chance of at most
/// 2⁻¹²⁸, to [`verify_opening`] on every item. Each claim is
/// [`push_opening`]ed into one [`LinearBatch`], an MSM over `2n + 2`
/// points. Returns `true` for an empty batch; a failure names no culprit.
pub fn batch_verify_openings(pk: &PublicKey, items: &[Opening]) -> bool {
    let mut batch = LinearBatch::new(2 * items.len() + 2);
    let pk = batch.shared(&pk.0);
    for item in items {
        push_opening(&mut batch, pk, item, 0);
    }
    batch.check().is_ok()
}

/// Decrypts a lifted ciphertext, recovering `m·G`.
pub fn decrypt_point(sk: &SecretKey, ct: &Ciphertext) -> Point {
    ct.b - ct.a.mul(&sk.0)
}

/// Decrypts a lifted ciphertext with message known to lie in `0..=max`,
/// using baby-step/giant-step. Returns `None` if the message is out of range.
pub fn decrypt_u64(sk: &SecretKey, ct: &Ciphertext, max: u64) -> Option<u64> {
    discrete_log(&decrypt_point(sk, ct), max)
}

/// Finds `m ∈ 0..=max` with `target = m·G`, or `None`.
pub fn discrete_log(target: &Point, max: u64) -> Option<u64> {
    if target.is_identity() {
        return Some(0);
    }
    let m = ((max as f64).sqrt() as u64 + 1).max(1);
    // Baby steps: j·G for j in 0..m, accumulated in Jacobian form and
    // normalized with one shared inversion instead of one per step.
    let g = Point::generator();
    let mut baby = Vec::with_capacity(m as usize);
    let mut cur = Point::IDENTITY;
    for _ in 0..m {
        baby.push(cur);
        cur += g;
    }
    let mut table: HashMap<[u8; 33], u64> = HashMap::with_capacity(m as usize);
    for (j, bytes) in Point::batch_to_bytes(&baby).into_iter().enumerate() {
        table.insert(bytes, j as u64);
    }
    // Giant steps: target - i·(m·G)
    let giant = g.mul(&Scalar::from_u64(m)).negate();
    let mut gamma = *target;
    let mut i = 0u64;
    while i * m <= max {
        if let Some(&j) = table.get(&gamma.to_bytes()) {
            let candidate = i * m + j;
            if candidate <= max {
                return Some(candidate);
            }
        }
        gamma += giant;
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_small() {
        let mut rng = StdRng::seed_from_u64(1);
        let (sk, pk) = keygen(&mut rng);
        for m in [0u64, 1, 2, 7, 100, 9999] {
            let (ct, _r) = encrypt_u64(&pk, m, &mut rng);
            assert_eq!(decrypt_u64(&sk, &ct, 10_000), Some(m));
        }
    }

    #[test]
    fn out_of_range_returns_none() {
        let mut rng = StdRng::seed_from_u64(2);
        let (sk, pk) = keygen(&mut rng);
        let (ct, _) = encrypt_u64(&pk, 50, &mut rng);
        assert_eq!(decrypt_u64(&sk, &ct, 10), None);
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = StdRng::seed_from_u64(3);
        let (sk, pk) = keygen(&mut rng);
        let (ct1, r1) = encrypt_u64(&pk, 3, &mut rng);
        let (ct2, r2) = encrypt_u64(&pk, 39, &mut rng);
        let sum = ct1.add(&ct2);
        assert_eq!(decrypt_u64(&sk, &sum, 100), Some(42));
        // Openings add too.
        assert!(verify_opening(&pk, &sum, &Scalar::from_u64(42), &(r1 + r2)));
    }

    #[test]
    fn opening_verifies_and_binds() {
        let mut rng = StdRng::seed_from_u64(4);
        let (_sk, pk) = keygen(&mut rng);
        let (ct, r) = encrypt_u64(&pk, 5, &mut rng);
        assert!(verify_opening(&pk, &ct, &Scalar::from_u64(5), &r));
        assert!(!verify_opening(&pk, &ct, &Scalar::from_u64(6), &r));
        assert!(!verify_opening(
            &pk,
            &ct,
            &Scalar::from_u64(5),
            &(r + Scalar::ONE)
        ));
    }

    #[test]
    fn unit_vector_tally_matches() {
        // Simulate an m=3 option race: votes for options [0,2,2,1,2].
        let mut rng = StdRng::seed_from_u64(5);
        let (sk, pk) = keygen(&mut rng);
        let votes = [0usize, 2, 2, 1, 2];
        let mut tally = vec![Ciphertext::IDENTITY; 3];
        for &v in &votes {
            for (j, slot) in tally.iter_mut().enumerate() {
                let (ct, _) = encrypt_u64(&pk, u64::from(j == v), &mut rng);
                *slot = slot.add(&ct);
            }
        }
        let counts: Vec<u64> = tally
            .iter()
            .map(|ct| decrypt_u64(&sk, ct, votes.len() as u64).unwrap())
            .collect();
        assert_eq!(counts, vec![1, 1, 3]);
    }

    #[test]
    fn prepared_key_matches_plain_operations() {
        let mut rng = StdRng::seed_from_u64(21);
        let (_, pk) = keygen(&mut rng);
        let prepared = PreparedKey::new(&pk);
        assert_eq!(*prepared.public_key(), pk);
        for m in [0u64, 1, 17] {
            let r = Scalar::random(&mut rng);
            assert_eq!(
                prepared.encrypt_with(&Scalar::from_u64(m), &r),
                encrypt_with(&pk, &Scalar::from_u64(m), &r)
            );
            assert_eq!(prepared.table().mul(&r), pk.0.mul(&r));
        }
    }

    #[test]
    fn batch_openings_accept_valid_and_reject_tampered() {
        let mut rng = StdRng::seed_from_u64(22);
        let (_, pk) = keygen(&mut rng);
        let mut items = Vec::new();
        for m in 0..9u64 {
            let (ct, r) = encrypt_u64(&pk, m, &mut rng);
            items.push((ct, Scalar::from_u64(m), r));
        }
        assert!(batch_verify_openings(&pk, &items));
        assert!(batch_verify_openings(&pk, &[]));
        assert!(batch_verify_openings(&pk, &items[..1]));
        // One wrong message scalar poisons the whole batch.
        let mut bad = items.clone();
        bad[4].1 += Scalar::ONE;
        assert!(!batch_verify_openings(&pk, &bad));
        // One wrong randomness too.
        let mut bad = items;
        bad[7].2 += Scalar::ONE;
        assert!(!batch_verify_openings(&pk, &bad));
    }

    /// `r + δ` on one opening and `r − δ` on another cancel in an
    /// equal-weight sum; the batch rejects them.
    #[test]
    fn batch_openings_reject_a_cancelling_pair() {
        let mut rng = StdRng::seed_from_u64(24);
        let (_, pk) = keygen(&mut rng);
        let mut items = Vec::new();
        for m in 0..6u64 {
            let (ct, r) = encrypt_u64(&pk, m % 2, &mut rng);
            items.push((ct, Scalar::from_u64(m % 2), r));
        }
        assert!(batch_verify_openings(&pk, &items));
        let delta = Scalar::random(&mut rng);
        items[1].2 += delta;
        items[4].2 -= delta;
        assert!(!verify_opening(&pk, &items[1].0, &items[1].1, &items[1].2));
        assert!(!batch_verify_openings(&pk, &items));
    }

    /// At the size where the MSM sorts thousands of points a window: one
    /// corrupted scalar or point anywhere still sinks the batch.
    #[test]
    fn batch_openings_reject_any_single_corruption_at_scale() {
        let mut rng = StdRng::seed_from_u64(23);
        let (_, pk) = keygen(&mut rng);
        let prepared = PreparedKey::new(&pk);
        let items: Vec<(Ciphertext, Scalar, Scalar)> = (0..600u64)
            .map(|i| {
                let (m, r) = (Scalar::from_u64(i % 2), Scalar::random(&mut rng));
                (prepared.encrypt_with(&m, &r), m, r)
            })
            .collect();
        assert!(batch_verify_openings(&pk, &items));
        let g = Point::generator();
        type Corruption = fn(&mut (Ciphertext, Scalar, Scalar), Point);
        let corruptions: [(&str, Corruption); 4] = [
            ("m", |item, _| item.1 += Scalar::ONE),
            ("r", |item, _| item.2 += Scalar::ONE),
            ("a", |item, g| item.0.a += g),
            ("b", |item, g| item.0.b += g),
        ];
        let random = 1 + rng.gen_range(0..items.len() - 2);
        for at in [0, items.len() - 1, random] {
            for (what, corrupt) in &corruptions {
                let mut bad = items.clone();
                corrupt(&mut bad[at], g);
                assert!(!batch_verify_openings(&pk, &bad), "{what} of item {at}");
            }
        }
    }

    #[test]
    fn ciphertext_serialization() {
        let mut rng = StdRng::seed_from_u64(6);
        let (_, pk) = keygen(&mut rng);
        let (ct, _) = encrypt_u64(&pk, 1, &mut rng);
        assert_eq!(Ciphertext::from_bytes(&ct.to_bytes()).unwrap(), ct);
        assert_eq!(
            Ciphertext::from_bytes(&Ciphertext::IDENTITY.to_bytes()).unwrap(),
            Ciphertext::IDENTITY
        );
    }

    #[test]
    fn bsgs_edges() {
        let g = Point::generator();
        assert_eq!(discrete_log(&Point::IDENTITY, 100), Some(0));
        assert_eq!(discrete_log(&g, 100), Some(1));
        assert_eq!(discrete_log(&g.mul(&Scalar::from_u64(100)), 100), Some(100));
        assert_eq!(discrete_log(&g.mul(&Scalar::from_u64(101)), 100), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_homomorphism(a in 0u64..1000, b in 0u64..1000, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (sk, pk) = keygen(&mut rng);
            let (ca, _) = encrypt_u64(&pk, a, &mut rng);
            let (cb, _) = encrypt_u64(&pk, b, &mut rng);
            prop_assert_eq!(decrypt_u64(&sk, &ca.add(&cb), 2000), Some(a + b));
        }
    }
}
