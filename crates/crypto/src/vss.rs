//! Verifiable secret sharing with an honest dealer.
//!
//! [`DealerVss`] is "verifiable secret sharing with honest dealer" as the
//! paper's prototype implements it (§V): plain Shamir shares, each
//! authenticated by the Election Authority, which deals them. It
//! authenticates a share in one of two ways, by who must be able to
//! check it:
//!
//! * **Signed** ([`SignedShare`]): an EA signature anyone holding the EA
//!   key can verify. The `msk` shares are dealt this way, since a Bulletin
//!   Board replica checks the ones the collectors post. The trustees'
//!   shares use the same Shamir sharing ([`crate::shamir`]) unsigned: a
//!   replica checks what `h_t` of them interpolate to against the
//!   commitments.
//! * **Tagged** ([`ShareTag`]): information checking in the sense of
//!   Rabin and Ben-Or (STOC 1989). The dealer gives each verifier `j` a
//!   tag key `K_j`, and hands the holder of a share one tag per verifier,
//!   `HMAC(K_j, share)` truncated to 16 bytes. Only `j` can check its tag,
//!   and nobody without `K_j` can make one. The VC nodes' receipt shares
//!   are dealt this way: a collector's share is only ever checked by
//!   another collector, so a tag does the signature's job at the cost of
//!   one keyed hash instead of a curve verification.

use crate::field::Scalar;
use crate::hmac::{tag_eq, HmacKey};
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

/// A dealer's tag on one share for one designated verifier: the first
/// 16 bytes of `HMAC(K_j, "ddemos/receipt-share-tag/v1" ‖ len(context) ‖
/// context ‖ index ‖ value)` under that verifier's key `K_j`.
pub type ShareTag = [u8; 16];

/// Trusted-dealer VSS: Shamir shares, each with a dealer signature or
/// with one dealer tag per designated verifier.
#[derive(Clone, Debug)]
pub struct DealerVss;

impl DealerVss {
    /// The signed byte string for one share — public so the batch/cache
    /// verification layer can rebuild it.
    pub fn share_message(context: &[u8], share: &Share) -> Vec<u8> {
        let mut msg = Vec::with_capacity(context.len() + 4 + 32 + 16);
        msg.extend_from_slice(b"ddemos/dealer-vss/v1");
        msg.extend_from_slice(&(context.len() as u32).to_be_bytes());
        msg.extend_from_slice(context);
        msg.extend_from_slice(&share.index.to_be_bytes());
        msg.extend_from_slice(&share.value.to_bytes());
        msg
    }

    /// Signs `shares` of one dealing.
    pub fn sign(dealer: &SigningKey, context: &[u8], shares: &[Share]) -> Vec<SignedShare> {
        shares
            .iter()
            .map(|&share| SignedShare {
                share,
                signature: dealer.sign(&Self::share_message(context, &share)),
            })
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

    /// The tag `share`, dealt under `context`, carries for the verifier
    /// holding `key`.
    pub fn tag(key: &HmacKey, context: &[u8], share: &Share) -> ShareTag {
        let mac = key.mac(&[
            b"ddemos/receipt-share-tag/v1",
            &(context.len() as u32).to_be_bytes(),
            context,
            &share.index.to_be_bytes(),
            &share.value.to_bytes(),
        ]);
        let mut tag = [0u8; 16];
        tag.copy_from_slice(&mac[..16]);
        tag
    }

    /// Whether `tag` is the dealer's tag on `share` under `context` for
    /// the verifier holding `key`: one keyed hash and a constant-time
    /// compare.
    pub fn check_tag(key: &HmacKey, context: &[u8], share: &Share, tag: &ShareTag) -> bool {
        tag_eq(&Self::tag(key, context, share), tag)
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

    /// Collectors 0..4 each hold a tag key; `shares[k]` is collector k's.
    fn tagged(seed: u64) -> (Vec<HmacKey>, Vec<Share>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = (0..4u8).map(|j| HmacKey::new(&[j; 32])).collect();
        let shares = shamir::split(Scalar::from_u64(77), 3, 4, &mut rng).unwrap();
        (keys, shares)
    }

    #[test]
    fn a_tag_checks_only_under_its_recipients_key() {
        let (keys, shares) = tagged(6);
        for (k, share) in shares.iter().enumerate() {
            for (j, key) in keys.iter().enumerate() {
                let tag = DealerVss::tag(key, b"ctx", share);
                for (l, other) in keys.iter().enumerate() {
                    assert_eq!(
                        DealerVss::check_tag(other, b"ctx", share, &tag),
                        l == j,
                        "share {k}, tag for {j}, checked by {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_flipped_bit_fails_the_tag() {
        let (keys, shares) = tagged(7);
        let key = &keys[2];
        let share = shares[0];
        let context = b"election-1/serial-9/A/0".to_vec();
        let tag = DealerVss::tag(key, &context, &share);
        assert!(DealerVss::check_tag(key, &context, &share, &tag));
        for byte in 0..context.len() {
            let mut flipped = context.clone();
            flipped[byte] ^= 1;
            assert!(!DealerVss::check_tag(key, &flipped, &share, &tag));
        }
        for bit in 0..32 {
            let index = Share {
                index: share.index ^ (1 << bit),
                ..share
            };
            assert!(!DealerVss::check_tag(key, &context, &index, &tag));
        }
        let mut value = share.value.to_bytes();
        value[31] ^= 1;
        let value = Share {
            value: Scalar::from_bytes(&value).unwrap(),
            ..share
        };
        assert!(!DealerVss::check_tag(key, &context, &value, &tag));
        for byte in 0..16 {
            let mut flipped = tag;
            flipped[byte] ^= 0x80;
            assert!(!DealerVss::check_tag(key, &context, &share, &flipped));
        }
    }

    /// Collector k's share with its tag for collector j is no good to
    /// anyone else, nor under another share index.
    #[test]
    fn a_share_and_its_tag_do_not_transfer() {
        let (keys, shares) = tagged(8);
        let (k, j, l) = (0, 1, 2);
        let tag = DealerVss::tag(&keys[j], b"ctx", &shares[k]);
        assert!(DealerVss::check_tag(&keys[j], b"ctx", &shares[k], &tag));
        assert!(!DealerVss::check_tag(&keys[l], b"ctx", &shares[k], &tag));
        let renumbered = Share {
            index: shares[l].index,
            ..shares[k]
        };
        assert!(!DealerVss::check_tag(&keys[j], b"ctx", &renumbered, &tag));
        // Nor does it vouch for another collector's share.
        assert!(!DealerVss::check_tag(&keys[j], b"ctx", &shares[l], &tag));
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
