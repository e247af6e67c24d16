//! Verifiable secret sharing with an honest dealer.
//!
//! [`DealerVss`] is "verifiable secret sharing with honest dealer" as the
//! paper's prototype implements it (§V): plain Shamir shares, each signed
//! by the Election Authority. The VC nodes' receipt shares and the `msk`
//! shares are dealt this way, and a disclosed share is accepted only if
//! the EA signature checks out. The trustee tally uses the same Shamir
//! sharing ([`crate::shamir`]), its shares delivered in EA-signed bundles.

use crate::field::Scalar;
use crate::schnorr::{Signature, SigningKey, VerifyingKey};
use crate::shamir::{self, Share, ShareError};

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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
