//! Shamir secret sharing over the secp256k1 scalar field.
//!
//! D-DEMOS uses `(Nv−fv, Nv)` sharing for voter receipts and the vote-code
//! master key `msk` (with EA-signed shares standing in for dealer
//! verifiability — see [`crate::vss`]), and `(h_t, N_t)` sharing for every
//! trustee secret. Shares are *additively homomorphic*: component-wise sums
//! of shares (at the same evaluation points) are shares of the sum — the
//! property the homomorphic tally opening relies on (§III-B).

use crate::field::Scalar;
use std::collections::btree_map::{BTreeMap, Entry};

/// Errors from share generation or reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShareError {
    /// Threshold was zero or exceeded the number of shares requested.
    BadThreshold,
    /// Reconstruction was attempted with fewer shares than the threshold.
    NotEnoughShares,
    /// Two shares carried the same evaluation index.
    DuplicateIndex,
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::BadThreshold => write!(f, "threshold must satisfy 1 <= k <= n"),
            ShareError::NotEnoughShares => write!(f, "fewer shares than the threshold"),
            ShareError::DuplicateIndex => write!(f, "duplicate share index"),
        }
    }
}
impl std::error::Error for ShareError {}

/// One Shamir share: the polynomial evaluated at `x = index` (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (never zero; share `i` belongs to party `i`).
    pub index: u32,
    /// `f(index)`.
    pub value: Scalar,
}

/// A random degree-`k−1` polynomial with constant term `secret`.
#[derive(Clone, Debug)]
pub struct Polynomial {
    coeffs: Vec<Scalar>,
}

impl Polynomial {
    /// The bytes [`Polynomial::random`] reads from its RNG for threshold
    /// `k`: 32 a drawn coefficient. A dealer whose shares nobody is
    /// handed skips that many ([`crate::hmac::PrfRng::skip`]) and its
    /// stream stays in step.
    pub fn random_bytes(k: usize) -> usize {
        32 * k.saturating_sub(1)
    }

    /// Samples a polynomial of degree `k−1` whose constant term is `secret`.
    ///
    /// # Errors
    /// [`ShareError::BadThreshold`] if `k == 0`.
    pub fn random<R: rand::RngCore + ?Sized>(
        secret: Scalar,
        k: usize,
        rng: &mut R,
    ) -> Result<Polynomial, ShareError> {
        if k == 0 {
            return Err(ShareError::BadThreshold);
        }
        let mut coeffs = Vec::with_capacity(k);
        coeffs.push(secret);
        for _ in 1..k {
            coeffs.push(Scalar::random(rng));
        }
        Ok(Polynomial { coeffs })
    }

    /// Evaluates at `x` (Horner).
    pub fn eval(&self, x: Scalar) -> Scalar {
        let mut acc = Scalar::ZERO;
        for c in self.coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// The polynomial coefficients, constant term first.
    pub fn coeffs(&self) -> &[Scalar] {
        &self.coeffs
    }

    /// Produces shares for parties `1..=n`.
    pub fn shares(&self, n: usize) -> Vec<Share> {
        (1..=n as u32)
            .map(|i| Share {
                index: i,
                value: self.eval(Scalar::from_u64(u64::from(i))),
            })
            .collect()
    }
}

/// Splits `secret` into `n` shares with reconstruction threshold `k`.
///
/// # Errors
/// [`ShareError::BadThreshold`] unless `1 ≤ k ≤ n`.
pub fn split<R: rand::RngCore + ?Sized>(
    secret: Scalar,
    k: usize,
    n: usize,
    rng: &mut R,
) -> Result<Vec<Share>, ShareError> {
    if k == 0 || k > n {
        return Err(ShareError::BadThreshold);
    }
    Ok(Polynomial::random(secret, k, rng)?.shares(n))
}

/// Lagrange interpolation at zero over one fixed set of share indices.
///
/// The weights `λᵢ(0) = Πⱼ≠ᵢ xⱼ / (xⱼ − xᵢ)` depend only on the index set,
/// not on the shared values, so a caller that reconstructs many secrets
/// from the same parties (a BB replica opening every commitment of an
/// election from one trustee subset, a VC node answering every cast from
/// one collector quorum) pays the field inversions once and each
/// reconstruction is `k` multiply-adds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interpolator {
    indices: Vec<u32>,
    weights: Vec<Scalar>,
}

impl Interpolator {
    /// Validates `indices` (non-empty, nonzero, pairwise distinct) and
    /// computes their Lagrange-at-zero weights with one shared inversion.
    ///
    /// # Errors
    /// [`ShareError::NotEnoughShares`] for an empty set,
    /// [`ShareError::DuplicateIndex`] for a zero or repeated index.
    pub fn new(indices: &[u32]) -> Result<Interpolator, ShareError> {
        if indices.is_empty() {
            return Err(ShareError::NotEnoughShares);
        }
        for (a, &ia) in indices.iter().enumerate() {
            if ia == 0 || indices.iter().skip(a + 1).any(|&ib| ib == ia) {
                return Err(ShareError::DuplicateIndex);
            }
        }
        let xs: Vec<Scalar> = indices
            .iter()
            .map(|&i| Scalar::from_u64(u64::from(i)))
            .collect();
        let mut weights = Vec::with_capacity(xs.len());
        let mut dens = Vec::with_capacity(xs.len());
        for (a, xi) in xs.iter().enumerate() {
            let mut num = Scalar::ONE;
            let mut den = Scalar::ONE;
            for (_, xj) in xs.iter().enumerate().filter(|(b, _)| *b != a) {
                num *= *xj;
                den *= *xj - *xi;
            }
            weights.push(num);
            dens.push(den);
        }
        // Distinct indices below the modulus: every denominator is a
        // product of nonzero differences, so all of them invert.
        Scalar::batch_invert(&mut dens);
        for (w, d) in weights.iter_mut().zip(dens) {
            *w *= d;
        }
        Ok(Interpolator {
            indices: indices.to_vec(),
            weights,
        })
    }

    /// The index set, in the order the weights apply.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The secret `f(0)` from `values`, where the `i`-th value is the
    /// share `f(indices()[i])`.
    ///
    /// # Errors
    /// [`ShareError::NotEnoughShares`] unless exactly one value per index
    /// is given.
    pub fn at_zero<I>(&self, values: I) -> Result<Scalar, ShareError>
    where
        I: IntoIterator<Item = Scalar>,
    {
        let mut weights = self.weights.iter();
        let mut secret = Scalar::ZERO;
        for value in values {
            let weight = weights.next().ok_or(ShareError::NotEnoughShares)?;
            secret += value * *weight;
        }
        if weights.next().is_some() {
            return Err(ShareError::NotEnoughShares);
        }
        Ok(secret)
    }
}

/// [`Interpolator`]s by index set, each computed on first use. A holder
/// meets at most `C(n, k)` sets — the `k`-subsets of the `n` parties whose
/// shares it accepts — and one of them nearly always.
#[derive(Clone, Debug, Default)]
pub struct InterpolatorCache(BTreeMap<Vec<u32>, Interpolator>);

impl InterpolatorCache {
    /// The interpolator over `indices`, in that order.
    ///
    /// # Errors
    /// As [`Interpolator::new`].
    pub fn over(&mut self, indices: Vec<u32>) -> Result<&Interpolator, ShareError> {
        match self.0.entry(indices) {
            Entry::Occupied(cached) => Ok(cached.into_mut()),
            Entry::Vacant(slot) => {
                let interp = Interpolator::new(slot.key())?;
                Ok(slot.insert(interp))
            }
        }
    }
}

/// Reconstructs the secret from exactly-threshold-or-more shares.
///
/// Uses the first `k` shares if more are given; all indices must be distinct
/// and nonzero. Callers that reconstruct repeatedly from the same parties
/// should hold an [`Interpolator`] instead.
///
/// # Errors
/// [`ShareError::NotEnoughShares`] / [`ShareError::DuplicateIndex`].
pub fn reconstruct(shares: &[Share], k: usize) -> Result<Scalar, ShareError> {
    let chosen = first_k(shares, k)?;
    let indices: Vec<u32> = chosen.iter().map(|s| s.index).collect();
    Interpolator::new(&indices)?.at_zero(chosen.iter().map(|s| s.value))
}

/// The first `k` of `shares` (the ones a `reconstruct(shares, k)` uses).
pub(crate) fn first_k<T>(shares: &[T], k: usize) -> Result<&[T], ShareError> {
    if k == 0 {
        return Err(ShareError::NotEnoughShares);
    }
    shares.get(..k).ok_or(ShareError::NotEnoughShares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The per-call routine [`Interpolator`] replaced, kept as the oracle:
    /// one Fermat inversion per share, no shared state.
    fn lagrange_at_zero(i: u32, indices: &[u32]) -> Scalar {
        let xi = Scalar::from_u64(u64::from(i));
        let mut num = Scalar::ONE;
        let mut den = Scalar::ONE;
        for &j in indices {
            if j == i {
                continue;
            }
            let xj = Scalar::from_u64(u64::from(j));
            num *= xj;
            den *= xj - xi;
        }
        num * den.invert().expect("distinct nonzero indices")
    }

    fn reference_reconstruct(shares: &[Share]) -> Scalar {
        let indices: Vec<u32> = shares.iter().map(|s| s.index).collect();
        shares.iter().fold(Scalar::ZERO, |acc, s| {
            acc + s.value * lagrange_at_zero(s.index, &indices)
        })
    }

    #[test]
    fn a_skipped_polynomial_leaves_the_stream_where_a_drawn_one_does() {
        use crate::hmac::{Prf, PrfRng};
        use rand::RngCore;
        let prf = Prf::new([4u8; 32]);
        for k in 1..=5 {
            let mut drawn = PrfRng::new(&prf, b"poly");
            let mut skipped = drawn.clone();
            Polynomial::random(Scalar::ONE, k, &mut drawn).unwrap();
            skipped.skip(Polynomial::random_bytes(k));
            assert_eq!(drawn.next_u64(), skipped.next_u64(), "k = {k}");
        }
    }

    #[test]
    fn interpolator_rejects_bad_index_sets() {
        assert_eq!(
            Interpolator::new(&[]).unwrap_err(),
            ShareError::NotEnoughShares
        );
        assert_eq!(
            Interpolator::new(&[1, 0, 2]).unwrap_err(),
            ShareError::DuplicateIndex
        );
        assert_eq!(
            Interpolator::new(&[3, 1, 3]).unwrap_err(),
            ShareError::DuplicateIndex
        );
        let interp = Interpolator::new(&[2, 5, 3]).unwrap();
        assert_eq!(interp.indices(), &[2, 5, 3]);
        // Exactly one value per index, no fewer and no more.
        let v = Scalar::from_u64(7);
        assert_eq!(
            interp.at_zero([v, v]).unwrap_err(),
            ShareError::NotEnoughShares
        );
        assert_eq!(
            interp.at_zero([v, v, v, v]).unwrap_err(),
            ShareError::NotEnoughShares
        );
        assert!(interp.at_zero([v, v, v]).is_ok());
    }

    #[test]
    fn split_and_reconstruct() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = Scalar::from_u64(0xDEADBEEF);
        let shares = split(secret, 3, 5, &mut rng).unwrap();
        assert_eq!(shares.len(), 5);
        assert_eq!(reconstruct(&shares[..3], 3).unwrap(), secret);
        assert_eq!(reconstruct(&shares[2..], 3).unwrap(), secret);
        // Any 3 of 5.
        let pick = [shares[0], shares[2], shares[4]];
        assert_eq!(reconstruct(&pick, 3).unwrap(), secret);
    }

    #[test]
    fn below_threshold_is_random_looking() {
        let mut rng = StdRng::seed_from_u64(2);
        let secret = Scalar::from_u64(42);
        let shares = split(secret, 3, 5, &mut rng).unwrap();
        // Reconstructing with k=2 (wrong threshold) gives a wrong value
        // almost surely.
        let wrong = reconstruct(&shares[..2], 2).unwrap();
        assert_ne!(wrong, secret);
        assert!(reconstruct(&shares[..2], 3).is_err());
    }

    #[test]
    fn parameter_validation() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            split(Scalar::ONE, 0, 5, &mut rng).unwrap_err(),
            ShareError::BadThreshold
        );
        assert_eq!(
            split(Scalar::ONE, 6, 5, &mut rng).unwrap_err(),
            ShareError::BadThreshold
        );
        let shares = split(Scalar::ONE, 2, 3, &mut rng).unwrap();
        let dup = [shares[0], shares[0]];
        assert_eq!(
            reconstruct(&dup, 2).unwrap_err(),
            ShareError::DuplicateIndex
        );
    }

    #[test]
    fn one_of_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let secret = Scalar::random(&mut rng);
        let shares = split(secret, 1, 1, &mut rng).unwrap();
        assert_eq!(reconstruct(&shares, 1).unwrap(), secret);
    }

    #[test]
    fn additive_homomorphism() {
        let mut rng = StdRng::seed_from_u64(5);
        let (s1, s2) = (Scalar::from_u64(100), Scalar::from_u64(23));
        let sh1 = split(s1, 3, 4, &mut rng).unwrap();
        let sh2 = split(s2, 3, 4, &mut rng).unwrap();
        let summed: Vec<Share> = sh1
            .iter()
            .zip(&sh2)
            .map(|(a, b)| Share {
                index: a.index,
                value: a.value + b.value,
            })
            .collect();
        assert_eq!(reconstruct(&summed[1..], 3).unwrap(), s1 + s2);
    }

    #[test]
    fn affine_combination_of_shares() {
        // The distributed-ZK trick: shares of α·c + β from shares of α, β.
        let mut rng = StdRng::seed_from_u64(6);
        let alpha = Scalar::random(&mut rng);
        let beta = Scalar::random(&mut rng);
        let c = Scalar::from_u64(777);
        let sa = split(alpha, 2, 3, &mut rng).unwrap();
        let sb = split(beta, 2, 3, &mut rng).unwrap();
        let combined: Vec<Share> = sa
            .iter()
            .zip(&sb)
            .map(|(a, b)| Share {
                index: a.index,
                value: a.value * c + b.value,
            })
            .collect();
        assert_eq!(reconstruct(&combined[..2], 2).unwrap(), alpha * c + beta);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_any_quorum_reconstructs(seed in any::<u64>(), k in 1usize..6, extra in 0usize..4) {
            let n = k + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = Scalar::random(&mut rng);
            let shares = split(secret, k, n, &mut rng).unwrap();
            // Rotate to pick different quorums.
            for start in 0..n {
                let quorum: Vec<Share> =
                    (0..k).map(|i| shares[(start + i) % n]).collect();
                prop_assert_eq!(reconstruct(&quorum, k).unwrap(), secret);
            }
        }

        #[test]
        fn prop_interpolator_matches_reference(
            seed in any::<u64>(),
            k in 1usize..6,
            extra in 0usize..5,
            stride in 1u32..40,
        ) {
            // Non-contiguous evaluation points: a shuffled k-subset of
            // {stride, 2·stride + 1, 3·stride + 2, …}.
            let n = k + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let poly = Polynomial::random(Scalar::random(&mut rng), k, &mut rng).unwrap();
            let mut points: Vec<u32> = (0..n as u32).map(|i| (i + 1) * stride + i).collect();
            for i in (1..points.len()).rev() {
                points.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let shares: Vec<Share> = points[..k]
                .iter()
                .map(|&index| Share { index, value: poly.eval(Scalar::from_u64(u64::from(index))) })
                .collect();
            let interp = Interpolator::new(&points[..k]).unwrap();
            let got = interp.at_zero(shares.iter().map(|s| s.value)).unwrap();
            prop_assert_eq!(got, reference_reconstruct(&shares));
            prop_assert_eq!(got, poly.eval(Scalar::ZERO));
            prop_assert_eq!(reconstruct(&shares, k).unwrap(), got);
            // The same weights serve every secret shared over these points.
            let other = Polynomial::random(Scalar::random(&mut rng), k, &mut rng).unwrap();
            let values = points[..k].iter().map(|&i| other.eval(Scalar::from_u64(u64::from(i))));
            prop_assert_eq!(interp.at_zero(values).unwrap(), other.eval(Scalar::ZERO));
        }
    }
}
