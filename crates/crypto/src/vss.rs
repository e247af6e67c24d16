//! Verifiable secret sharing.
//!
//! Two flavours, matching the two uses in D-DEMOS:
//!
//! * [`PedersenVss`] — Pedersen's non-interactive VSS (§III-B cites
//!   Pedersen '91): the dealer publishes Pedersen commitments to the sharing
//!   polynomial's coefficients; every share carries a blinding value and can
//!   be verified against the public commitments. Shares and commitment
//!   vectors are additively homomorphic, and can be scaled by public
//!   constants — both properties are used by the trustee tally and the
//!   distributed zero-knowledge final move.
//!
//! * [`DealerVss`] — "verifiable secret sharing with honest dealer" as the
//!   paper's prototype implements it (§V): plain Shamir shares, each signed
//!   by the Election Authority. A receipt share disclosed by a VC node is
//!   accepted only if the EA signature checks out.

use crate::curve::Point;
use crate::field::Scalar;
use crate::pedersen::Commitment;
use crate::schnorr::{Signature, SigningKey, VerifyingKey};
use crate::sha256::{Sha256, WeightStream};
use crate::shamir::{self, Interpolator, Polynomial, Share, ShareError};

/// A Pedersen-VSS share: evaluation of the value and blinding polynomials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VssShare {
    /// Evaluation point (1-based party index).
    pub index: u32,
    /// `f(index)` — the share of the secret.
    pub value: Scalar,
    /// `g(index)` — the share of the blinding factor.
    pub blinding: Scalar,
}

/// The public commitment vector of a Pedersen VSS dealing
/// (`C_j = Com(a_j; b_j)` for each coefficient pair).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VssCommitments(pub Vec<Commitment>);

impl VssCommitments {
    /// The reconstruction threshold this dealing was made with.
    pub fn threshold(&self) -> usize {
        self.0.len()
    }

    /// Commitment to the secret itself (`C_0 = Com(s; b_0)`).
    pub fn secret_commitment(&self) -> Commitment {
        self.0.first().copied().unwrap_or(Commitment::IDENTITY)
    }

    /// Verifies a share: `Com(value; blinding) == Σ_j C_j · indexʲ`
    /// (the right-hand side evaluated as one [`Point::msm`]).
    pub fn verify(&self, share: &VssShare) -> bool {
        if share.index == 0 {
            return false;
        }
        let x = Scalar::from_u64(u64::from(share.index));
        let mut powers = Vec::with_capacity(self.0.len());
        let mut xj = Scalar::ONE;
        for _ in &self.0 {
            powers.push(xj);
            xj *= x;
        }
        let points: Vec<Point> = self.0.iter().map(|c| c.0).collect();
        let expected = Commitment(Point::msm(&powers, &points));
        Commitment::commit(&share.value, &share.blinding) == expected
    }

    /// Verifies many shares of this dealing at once: the per-share
    /// equations are combined with 128-bit weights hashed from the batch,
    /// hence deterministic, into one multi-scalar multiplication of
    /// `k + 2` terms, instead of `k + 2` scalar ladders per share. By
    /// Bellare–Garay–Rabin's small-exponent test a batch holding a false
    /// share passes with probability at most 2⁻¹²⁸; grinding the
    /// transcript costs ~2¹²⁸ hashes, the curve's own generic bound. On
    /// failure, fall back to per-share [`VssCommitments::verify`].
    pub fn verify_batch(&self, shares: &[VssShare]) -> bool {
        if shares.len() < 2 {
            return shares.iter().all(|s| self.verify(s));
        }
        if shares.iter().any(|s| s.index == 0) {
            return false;
        }
        // G, H and the commitments, normalised together: the transcript
        // hashes the commitments' encodings and the MSM adds the same
        // affine coordinates.
        let mut points = vec![Point::generator(), crate::pedersen::generator_h()];
        points.extend(self.0.iter().map(|c| c.0));
        let points = Point::batch_normalize(&points);
        let mut transcript = Sha256::new();
        transcript.update(b"ddemos/batch-vss/v1");
        for c in &points[2..] {
            transcript.update(&c.to_bytes());
        }
        for s in shares {
            transcript.update(&s.index.to_be_bytes());
            transcript.update(&s.value.to_bytes());
            transcript.update(&s.blinding.to_bytes());
        }
        let weights = WeightStream::new(&transcript.finalize()).flatten();
        // Σᵢ ρᵢ·(vᵢ·G + bᵢ·H − Σ_j C_j·xᵢʲ) == 0, grouped by base.
        let mut g_coeff = Scalar::ZERO;
        let mut h_coeff = Scalar::ZERO;
        let mut c_coeffs = vec![Scalar::ZERO; self.0.len()];
        for (s, rho) in shares.iter().zip(weights) {
            g_coeff += rho * s.value;
            h_coeff += rho * s.blinding;
            let x = Scalar::from_u64(u64::from(s.index));
            let mut xj = Scalar::ONE;
            for c in c_coeffs.iter_mut() {
                *c -= rho * xj;
                xj *= x;
            }
        }
        let mut scalars = vec![g_coeff, h_coeff];
        scalars.extend(c_coeffs);
        Point::msm_affine(&scalars, &points).is_identity()
    }

    /// Homomorphic addition of two dealings (same threshold).
    ///
    /// # Panics
    /// Panics if the thresholds differ.
    pub fn add(&self, other: &VssCommitments) -> VssCommitments {
        assert_eq!(self.0.len(), other.0.len(), "mismatched VSS thresholds");
        VssCommitments(self.0.iter().zip(&other.0).map(|(a, b)| a.add(b)).collect())
    }

    /// Scales a dealing by a public constant.
    pub fn scale(&self, k: &Scalar) -> VssCommitments {
        VssCommitments(self.0.iter().map(|c| c.scale(k)).collect())
    }
}

/// Pedersen verifiable secret sharing.
#[derive(Clone, Debug)]
pub struct PedersenVss;

impl PedersenVss {
    /// Deals `secret` to `n` parties with threshold `k`.
    ///
    /// # Errors
    /// [`ShareError::BadThreshold`] unless `1 ≤ k ≤ n`.
    pub fn deal<R: rand::RngCore + ?Sized>(
        secret: Scalar,
        k: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<(Vec<VssShare>, VssCommitments), ShareError> {
        if k == 0 || k > n {
            return Err(ShareError::BadThreshold);
        }
        let value_poly = Polynomial::random(secret, k, rng)?;
        let blind_poly = Polynomial::random(Scalar::random(rng), k, rng)?;
        let commitments = VssCommitments(
            value_poly
                .coeffs()
                .iter()
                .zip(blind_poly.coeffs())
                .map(|(a, b)| Commitment::commit(a, b))
                .collect(),
        );
        let shares = (1..=n as u32)
            .map(|i| {
                let x = Scalar::from_u64(u64::from(i));
                VssShare {
                    index: i,
                    value: value_poly.eval(x),
                    blinding: blind_poly.eval(x),
                }
            })
            .collect();
        Ok((shares, commitments))
    }

    /// Reconstructs the secret (and its blinding) from ≥ k shares.
    ///
    /// Shares should be verified against the commitments first; this
    /// function interpolates blindly.
    ///
    /// # Errors
    /// Propagates [`ShareError`] from interpolation.
    pub fn reconstruct(shares: &[VssShare], k: usize) -> Result<(Scalar, Scalar), ShareError> {
        let chosen = shamir::first_k(shares, k)?;
        let indices: Vec<u32> = chosen.iter().map(|s| s.index).collect();
        let interp = Interpolator::new(&indices)?;
        Ok((
            interp.at_zero(chosen.iter().map(|s| s.value))?,
            interp.at_zero(chosen.iter().map(|s| s.blinding))?,
        ))
    }
}

/// Combines shares of several dealings (same index) into a share of the sum.
pub fn add_shares(a: &VssShare, b: &VssShare) -> VssShare {
    assert_eq!(a.index, b.index, "shares must belong to the same party");
    VssShare {
        index: a.index,
        value: a.value + b.value,
        blinding: a.blinding + b.blinding,
    }
}

/// Scales a share by a public constant.
pub fn scale_share(share: &VssShare, k: &Scalar) -> VssShare {
    VssShare {
        index: share.index,
        value: share.value * *k,
        blinding: share.blinding * *k,
    }
}

/// A dealer-signed Shamir share ("VSS with trusted dealer", §V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignedShare {
    /// The underlying Shamir share.
    pub share: Share,
    /// EA signature over (context, index, value).
    pub signature: Signature,
}

/// Trusted-dealer VSS: Shamir + per-share dealer signature.
#[derive(Clone, Debug)]
pub struct DealerVss;

impl DealerVss {
    /// The signed byte string for one share — public so a dealer with
    /// many dealings to sign can put them all through one
    /// [`SigningKey::sign_many`], and the batch/cache verification layer
    /// can rebuild it.
    pub fn share_message(context: &[u8], share: &Share) -> Vec<u8> {
        let mut msg = Vec::with_capacity(context.len() + 4 + 32 + 16);
        msg.extend_from_slice(b"ddemos/dealer-vss/v1");
        msg.extend_from_slice(&(context.len() as u32).to_be_bytes());
        msg.extend_from_slice(context);
        msg.extend_from_slice(&share.index.to_be_bytes());
        msg.extend_from_slice(&share.value.to_bytes());
        msg
    }

    /// Signs `shares` of one dealing (one shared inversion for the lot).
    pub fn sign(dealer: &SigningKey, context: &[u8], shares: &[Share]) -> Vec<SignedShare> {
        let messages: Vec<Vec<u8>> = shares
            .iter()
            .map(|share| Self::share_message(context, share))
            .collect();
        shares
            .iter()
            .zip(dealer.sign_many(&messages))
            .map(|(&share, signature)| SignedShare { share, signature })
            .collect()
    }

    /// Deals `secret` into `n` signed shares with threshold `k`.
    ///
    /// `context` binds the shares to their purpose (election id, serial
    /// number, ballot row…), preventing cross-protocol share reuse.
    ///
    /// # Errors
    /// [`ShareError::BadThreshold`] unless `1 ≤ k ≤ n`.
    pub fn deal<R: rand::RngCore + ?Sized>(
        dealer: &SigningKey,
        context: &[u8],
        secret: Scalar,
        k: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<SignedShare>, ShareError> {
        Ok(Self::sign(
            dealer,
            context,
            &shamir::split(secret, k, n, rng)?,
        ))
    }

    /// Verifies a signed share against the dealer's key and context.
    pub fn verify(dealer: &VerifyingKey, context: &[u8], share: &SignedShare) -> bool {
        dealer.verify(
            &Self::share_message(context, &share.share),
            &share.signature,
        )
    }

    /// Reconstructs from ≥ k shares (verify each first).
    ///
    /// # Errors
    /// Propagates [`ShareError`] from interpolation.
    pub fn reconstruct(shares: &[SignedShare], k: usize) -> Result<Scalar, ShareError> {
        let plain: Vec<Share> = shares.iter().map(|s| s.share).collect();
        shamir::reconstruct(&plain, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pedersen_vss_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = Scalar::from_u64(1234);
        let (shares, comms) = PedersenVss::deal(secret, 3, 5, &mut rng).unwrap();
        for s in &shares {
            assert!(comms.verify(s));
        }
        let (rec, _blind) = PedersenVss::reconstruct(&shares[1..4], 3).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn pedersen_vss_batch_verify() {
        let mut rng = StdRng::seed_from_u64(11);
        let (shares, comms) = PedersenVss::deal(Scalar::from_u64(77), 3, 6, &mut rng).unwrap();
        assert!(comms.verify_batch(&shares));
        assert!(comms.verify_batch(&[]));
        assert!(comms.verify_batch(&shares[..1]));
        let mut bad = shares.clone();
        bad[2].value += Scalar::ONE;
        assert!(!comms.verify_batch(&bad));
        let mut bad = shares;
        bad[4].index = 0;
        assert!(!comms.verify_batch(&bad));
    }

    /// `value + δ` on one share and `value − δ` on another cancel in an
    /// equal-weight sum; the batch rejects them.
    #[test]
    fn pedersen_vss_batch_rejects_a_cancelling_pair() {
        let mut rng = StdRng::seed_from_u64(12);
        let (mut shares, comms) = PedersenVss::deal(Scalar::from_u64(5), 3, 6, &mut rng).unwrap();
        assert!(comms.verify_batch(&shares));
        let delta = Scalar::random(&mut rng);
        shares[0].value += delta;
        shares[3].value -= delta;
        assert!(!comms.verify(&shares[0]));
        assert!(!comms.verify_batch(&shares));
    }

    #[test]
    fn pedersen_vss_rejects_tampered_share() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mut shares, comms) = PedersenVss::deal(Scalar::from_u64(7), 2, 4, &mut rng).unwrap();
        shares[0].value += Scalar::ONE;
        assert!(!comms.verify(&shares[0]));
        shares[0].value -= Scalar::ONE;
        shares[0].blinding += Scalar::ONE;
        assert!(!comms.verify(&shares[0]));
        let zero_index = VssShare {
            index: 0,
            ..shares[1]
        };
        assert!(!comms.verify(&zero_index));
    }

    #[test]
    fn pedersen_vss_homomorphic_add_and_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let (s1, s2) = (Scalar::from_u64(10), Scalar::from_u64(20));
        let (sh1, c1) = PedersenVss::deal(s1, 3, 5, &mut rng).unwrap();
        let (sh2, c2) = PedersenVss::deal(s2, 3, 5, &mut rng).unwrap();
        let k = Scalar::from_u64(9);
        // share of s1*k + s2, commitment-side and share-side.
        let comms = c1.scale(&k).add(&c2);
        let shares: Vec<VssShare> = sh1
            .iter()
            .zip(&sh2)
            .map(|(a, b)| add_shares(&scale_share(a, &k), b))
            .collect();
        for s in &shares {
            assert!(comms.verify(s));
        }
        let (rec, _) = PedersenVss::reconstruct(&shares[..3], 3).unwrap();
        assert_eq!(rec, s1 * k + s2);
    }

    #[test]
    fn dealer_vss_sign_verify_reconstruct() {
        let mut rng = StdRng::seed_from_u64(4);
        let dealer = SigningKey::generate(&mut rng);
        let secret = Scalar::from_u64(0xCAFE);
        let shares =
            DealerVss::deal(&dealer, b"election-1/serial-9", secret, 3, 4, &mut rng).unwrap();
        for s in &shares {
            assert!(DealerVss::verify(
                &dealer.verifying_key(),
                b"election-1/serial-9",
                s
            ));
            // Wrong context rejects.
            assert!(!DealerVss::verify(
                &dealer.verifying_key(),
                b"election-1/serial-8",
                s
            ));
        }
        assert_eq!(DealerVss::reconstruct(&shares[..3], 3).unwrap(), secret);
    }

    #[test]
    fn dealer_vss_rejects_forged_share() {
        let mut rng = StdRng::seed_from_u64(5);
        let dealer = SigningKey::generate(&mut rng);
        let forger = SigningKey::generate(&mut rng);
        let mut shares =
            DealerVss::deal(&dealer, b"ctx", Scalar::from_u64(1), 2, 3, &mut rng).unwrap();
        // Value tampering breaks the signature.
        shares[0].share.value += Scalar::ONE;
        assert!(!DealerVss::verify(
            &dealer.verifying_key(),
            b"ctx",
            &shares[0]
        ));
        // A forger cannot make valid shares.
        let forged = DealerVss::deal(&forger, b"ctx", Scalar::from_u64(1), 2, 3, &mut rng).unwrap();
        assert!(!DealerVss::verify(
            &dealer.verifying_key(),
            b"ctx",
            &forged[0]
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_pedersen_quorums(seed in any::<u64>(), k in 1usize..5, extra in 0usize..3) {
            let n = k + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = Scalar::random(&mut rng);
            let (shares, comms) = PedersenVss::deal(secret, k, n, &mut rng).unwrap();
            for s in &shares {
                prop_assert!(comms.verify(s));
            }
            for start in 0..n {
                let quorum: Vec<VssShare> = (0..k).map(|i| shares[(start + i) % n]).collect();
                let (rec, _) = PedersenVss::reconstruct(&quorum, k).unwrap();
                prop_assert_eq!(rec, secret);
            }
        }
    }
}
