//! Prime-field arithmetic in Montgomery form.
//!
//! A single macro instantiates both fields used by the system:
//!
//! * [`Fp`] — the secp256k1 base field (coordinates of curve points),
//! * [`Scalar`] — the secp256k1 scalar field (exponents, shares, secrets).
//!
//! All constants (Montgomery `R`, `R²`, `-p⁻¹ mod 2⁶⁴`) are derived at
//! compile time from the modulus alone, so there are no hand-copied magic
//! reduction constants to get wrong.
//!
//! This implementation targets a research prototype: it is correct and fast
//! enough for protocol benchmarking but makes **no constant-time claims**.

use crate::u256::U256;

/// Computes `-m0⁻¹ mod 2⁶⁴` for odd `m0` (Newton–Hensel lifting).
const fn neg_inv64(m0: u64) -> u64 {
    // inv starts correct mod 2; each step doubles the number of correct bits.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// `a >= b` usable in const context.
const fn geq(a: U256, b: U256) -> bool {
    !a.sbb(b).1
}

/// Doubles `x` modulo `m`, assuming `x < m`.
const fn double_mod(x: U256, m: U256) -> U256 {
    let (sum, carry) = x.adc(x);
    if carry || geq(sum, m) {
        // 2x - m < m and the wrapping subtraction is exact even when the
        // true value 2x exceeded 2^256 (the borrow cancels the lost carry).
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// `2^k mod m` for `m > 1`, in const context.
const fn pow2_mod(k: usize, m: U256) -> U256 {
    let mut x = U256::ONE;
    let mut i = 0;
    while i < k {
        x = double_mod(x, m);
        i += 1;
    }
    x
}

/// `(m >> 2) + 1`, i.e. `(m+1)/4` for `m ≡ 3 (mod 4)`, in const context.
const fn sqrt_exponent(m: U256) -> U256 {
    let l = m.limbs();
    let shifted = [
        (l[0] >> 2) | (l[1] << 62),
        (l[1] >> 2) | (l[2] << 62),
        (l[2] >> 2) | (l[3] << 62),
        l[3] >> 2,
    ];
    U256::from_limbs(shifted).adc(U256::ONE).0
}

/// Whether `m = 2²⁵⁶ − c` for a `c` below `2⁶⁴` — as the secp256k1 base
/// field's modulus is — which [`mont_mul_limbs`] reduces by faster.
const fn near_power_of_two(m: U256) -> bool {
    let l = m.limbs();
    l[1] == u64::MAX && l[2] == u64::MAX && l[3] == u64::MAX
}

/// Interleaved Montgomery multiplication (CIOS) of two values below the
/// odd modulus `p`, returning `a·b·2⁻²⁵⁶ mod p`; `inv = −p⁻¹ mod 2⁶⁴`.
///
/// Each of the four rounds adds `aᵢ·b` and then the multiple `m·p` that
/// clears the low limb, and drops that limb. `NEAR_POWER` promises
/// [`near_power_of_two`]`(p)`: then `m·p = m·2²⁵⁶ − m·c` is one
/// multiplication, a borrow chain and an addition instead of four
/// multiply-adds — the same value, a third fewer limb products a call.
#[inline(always)]
fn mont_mul_limbs<const NEAR_POWER: bool>(
    a: [u64; 4],
    b: [u64; 4],
    p: [u64; 4],
    inv: u64,
) -> [u64; 4] {
    let mut t = [0u64; 6];
    for ai in a {
        // t += ai * b
        let mut carry: u64 = 0;
        for j in 0..4 {
            let acc = t[j] as u128 + (ai as u128) * (b[j] as u128) + carry as u128;
            t[j] = acc as u64;
            carry = (acc >> 64) as u64;
        }
        let acc = t[4] as u128 + carry as u128;
        t[4] = acc as u64;
        t[5] = (acc >> 64) as u64;
        // Reduce one limb: t = (t + m·p) / 2^64
        let m = t[0].wrapping_mul(inv);
        if NEAR_POWER {
            // t − m·c + m·2²⁵⁶, with c = −p[0] mod 2⁶⁴. `m` makes the low
            // limb of `m·c` equal `t[0]`, so limb 0 cancels with no
            // borrow; the top cannot go negative, the sum being `t + m·p`.
            let mc = (m as u128) * (p[0].wrapping_neg() as u128);
            let (d1, borrow) = t[1].overflowing_sub((mc >> 64) as u64);
            let (d2, borrow) = t[2].overflowing_sub(borrow as u64);
            let (d3, borrow) = t[3].overflowing_sub(borrow as u64);
            let top = (((t[5] as u128) << 64) | t[4] as u128) + m as u128 - borrow as u128;
            t = [d1, d2, d3, top as u64, (top >> 64) as u64, 0];
        } else {
            let acc = t[0] as u128 + (m as u128) * (p[0] as u128);
            let mut carry = (acc >> 64) as u64;
            for j in 1..4 {
                let acc = t[j] as u128 + (m as u128) * (p[j] as u128) + carry as u128;
                t[j - 1] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            let acc = t[4] as u128 + carry as u128;
            t[3] = acc as u64;
            t[4] = t[5] + ((acc >> 64) as u64);
            t[5] = 0;
        }
    }
    let r = U256::from_limbs([t[0], t[1], t[2], t[3]]);
    let p = U256::from_limbs(p);
    if t[4] != 0 || geq(r, p) {
        r.wrapping_sub(p).limbs()
    } else {
        r.limbs()
    }
}

macro_rules! mont_field {
    (
        $(#[$doc:meta])*
        $name:ident, modulus_limbs = $modulus:expr, sqrt_3mod4 = $sqrt:expr
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name {
            /// Montgomery representation: the stored value is `v·R mod p`.
            mont: U256,
        }

        impl $name {
            /// The field modulus.
            pub const MODULUS: U256 = U256::from_limbs($modulus);
            const INV: u64 = neg_inv64($modulus[0]);
            const R: U256 = pow2_mod(256, Self::MODULUS);
            const R2: U256 = pow2_mod(512, Self::MODULUS);
            const SQRT_EXP: U256 = sqrt_exponent(Self::MODULUS);

            /// Additive identity.
            pub const ZERO: $name = $name { mont: U256::ZERO };
            /// Multiplicative identity.
            pub const ONE: $name = $name { mont: Self::R };

            /// Montgomery multiplication, `a·b·R⁻¹ mod p`
            /// ([`mont_mul_limbs`]).
            #[inline]
            fn mont_mul(a: U256, b: U256) -> U256 {
                const NEAR_POWER: bool = near_power_of_two(U256::from_limbs($modulus));
                U256::from_limbs(mont_mul_limbs::<NEAR_POWER>(
                    a.limbs(),
                    b.limbs(),
                    $modulus,
                    Self::INV,
                ))
            }

            /// Constructs a field element from an integer `< 2⁶⁴`.
            pub fn from_u64(v: u64) -> $name {
                $name { mont: Self::mont_mul(U256::from_u64(v), Self::R2) }
            }

            /// Constructs a field element from an integer `< 2¹²⁸`.
            pub fn from_u128(v: u128) -> $name {
                $name { mont: Self::mont_mul(U256::from_u128(v), Self::R2) }
            }

            /// Constructs a field element from a canonical integer (reduced).
            pub fn from_u256_reduce(v: U256) -> $name {
                let mut v = v;
                while geq(v, Self::MODULUS) {
                    v = v.wrapping_sub(Self::MODULUS);
                }
                $name { mont: Self::mont_mul(v, Self::R2) }
            }

            /// Parses 32 big-endian bytes; rejects non-canonical encodings
            /// (values ≥ the modulus).
            pub fn from_bytes(bytes: &[u8; 32]) -> Option<$name> {
                let v = U256::from_be_bytes(bytes);
                if geq(v, Self::MODULUS) {
                    return None;
                }
                Some($name { mont: Self::mont_mul(v, Self::R2) })
            }

            /// Parses 32 big-endian bytes, reducing modulo the field order.
            ///
            /// Suitable for deriving field elements from hash output; the
            /// statistical bias is negligible for the moduli used here.
            pub fn from_bytes_reduce(bytes: &[u8; 32]) -> $name {
                Self::from_u256_reduce(U256::from_be_bytes(bytes))
            }

            /// Parses a big-endian hex string (reduced modulo the order).
            pub fn from_hex(s: &str) -> Option<$name> {
                U256::from_hex(s).map(Self::from_u256_reduce)
            }

            /// Returns the canonical (non-Montgomery) integer value.
            pub fn to_u256(self) -> U256 {
                Self::mont_mul(self.mont, U256::ONE)
            }

            /// Serializes as 32 canonical big-endian bytes.
            pub fn to_bytes(self) -> [u8; 32] {
                self.to_u256().to_be_bytes()
            }

            /// Returns the value as `u64` if it fits.
            pub fn to_u64(self) -> Option<u64> {
                let limbs = self.to_u256().limbs();
                if limbs[1] == 0 && limbs[2] == 0 && limbs[3] == 0 {
                    Some(limbs[0])
                } else {
                    None
                }
            }

            /// True iff this is the additive identity.
            pub fn is_zero(&self) -> bool {
                self.mont.is_zero()
            }

            /// Field addition.
            #[inline]
            #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
            pub fn add(self, rhs: $name) -> $name {
                let (sum, carry) = self.mont.adc(rhs.mont);
                let mont = if carry || geq(sum, Self::MODULUS) {
                    sum.wrapping_sub(Self::MODULUS)
                } else {
                    sum
                };
                $name { mont }
            }

            /// Field subtraction.
            #[inline]
            #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
            pub fn sub(self, rhs: $name) -> $name {
                let (diff, borrow) = self.mont.sbb(rhs.mont);
                let mont = if borrow {
                    diff.wrapping_add(Self::MODULUS)
                } else {
                    diff
                };
                $name { mont }
            }

            /// Field negation.
            #[inline]
            #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
            pub fn neg(self) -> $name {
                if self.is_zero() {
                    self
                } else {
                    $name { mont: Self::MODULUS.wrapping_sub(self.mont) }
                }
            }

            /// Field multiplication.
            #[inline]
            #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
            pub fn mul(self, rhs: $name) -> $name {
                $name { mont: Self::mont_mul(self.mont, rhs.mont) }
            }

            /// Squaring.
            #[inline]
            pub fn square(self) -> $name {
                self.mul(self)
            }

            /// Doubling.
            #[inline]
            pub fn double(self) -> $name {
                self.add(self)
            }

            /// Exponentiation by a 256-bit exponent (square-and-multiply).
            pub fn pow(self, e: U256) -> $name {
                let mut acc = Self::ONE;
                for i in (0..e.bits()).rev() {
                    acc = acc.square();
                    if e.bit(i) {
                        acc = acc.mul(self);
                    }
                }
                acc
            }

            /// Multiplicative inverse (`None` for zero), via Fermat.
            pub fn invert(self) -> Option<$name> {
                if self.is_zero() {
                    return None;
                }
                let e = Self::MODULUS.wrapping_sub(U256::from_u64(2));
                Some(self.pow(e))
            }

            /// Montgomery-trick batch inversion: replaces every nonzero
            /// element with its inverse using a single field inversion plus
            /// `3(n−1)` multiplications, instead of one ~256-square Fermat
            /// exponentiation per element. Zeros are left in place (the
            /// batch analogue of [`Self::invert`] returning `None`).
            pub fn batch_invert(elems: &mut [$name]) {
                Self::batch_invert_with(elems, &mut Vec::new());
            }

            /// [`Self::batch_invert`] with the prefix products held in
            /// `prefix` (overwritten), so a caller inverting slice after
            /// slice allocates for the longest one only.
            pub fn batch_invert_with(elems: &mut [$name], prefix: &mut Vec<$name>) {
                // prefix[i] = product of the nonzero elements before i.
                prefix.clear();
                prefix.reserve(elems.len());
                let mut acc = Self::ONE;
                for e in elems.iter() {
                    prefix.push(acc);
                    if !e.is_zero() {
                        acc *= *e;
                    }
                }
                // acc is a product of nonzero elements (or ONE), hence
                // invertible.
                let mut suffix_inv = acc.invert().expect("product of nonzero elements");
                for (e, p) in elems.iter_mut().zip(prefix.iter()).rev() {
                    if e.is_zero() {
                        continue;
                    }
                    // suffix_inv = (product of nonzero elems[..=i])⁻¹, so
                    // multiplying by the prefix product isolates elems[i]⁻¹.
                    let inv = suffix_inv * *p;
                    suffix_inv *= *e;
                    *e = inv;
                }
            }

            /// Samples a uniform field element from the given RNG.
            pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> $name {
                let mut bytes = [0u8; 32];
                rng.fill_bytes(&mut bytes);
                Self::from_bytes_reduce(&bytes)
            }

            /// Square root for moduli `≡ 3 (mod 4)`; `None` if no root exists.
            ///
            /// # Panics
            /// Panics (in debug builds) when invoked for a field that was not
            /// declared `sqrt_3mod4`.
            pub fn sqrt(self) -> Option<$name> {
                debug_assert!($sqrt, "sqrt only supported for p = 3 mod 4 fields");
                let cand = self.pow(Self::SQRT_EXP);
                if cand.square() == self {
                    Some(cand)
                } else {
                    None
                }
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name::add(self, rhs)
            }
        }
        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name::sub(self, rhs)
            }
        }
        impl std::ops::Mul for $name {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name::mul(self, rhs)
            }
        }
        impl std::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name::neg(self)
            }
        }
        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                *self = $name::add(*self, rhs);
            }
        }
        impl std::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                *self = $name::sub(*self, rhs);
            }
        }
        impl std::ops::MulAssign for $name {
            fn mul_assign(&mut self, rhs: $name) {
                *self = $name::mul(*self, rhs);
            }
        }
        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, |a, b| a + b)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}(0x", stringify!($name))?;
                for b in self.to_bytes() {
                    write!(f, "{b:02x}")?;
                }
                write!(f, ")")
            }
        }
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Debug::fmt(self, f)
            }
        }
        impl From<u64> for $name {
            fn from(v: u64) -> $name {
                $name::from_u64(v)
            }
        }
    };
}

mont_field!(
    /// Element of the secp256k1 base field
    /// (`p = 2²⁵⁶ − 2³² − 977`).
    Fp,
    modulus_limbs = [
        0xFFFF_FFFE_FFFF_FC2F,
        0xFFFF_FFFF_FFFF_FFFF,
        0xFFFF_FFFF_FFFF_FFFF,
        0xFFFF_FFFF_FFFF_FFFF,
    ],
    sqrt_3mod4 = true
);

mont_field!(
    /// Element of the secp256k1 scalar field (the prime group order `n`).
    Scalar,
    modulus_limbs = [
        0xBFD2_5E8C_D036_4141,
        0xBAAE_DCE6_AF48_A03B,
        0xFFFF_FFFF_FFFF_FFFE,
        0xFFFF_FFFF_FFFF_FFFF,
    ],
    sqrt_3mod4 = false
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identities() {
        assert_eq!(Fp::from_u64(0), Fp::ZERO);
        assert_eq!(Fp::from_u64(1), Fp::ONE);
        assert_eq!(Fp::ONE * Fp::ONE, Fp::ONE);
        assert_eq!(Fp::from_u64(7).to_u64(), Some(7));
        assert_eq!(Scalar::from_u64(42).to_u64(), Some(42));
    }

    #[test]
    fn small_arithmetic() {
        let a = Fp::from_u64(1_000_000_007);
        let b = Fp::from_u64(998_244_353);
        assert_eq!((a * b).to_u64(), Some(1_000_000_007 * 998_244_353));
        assert_eq!((a + b).to_u64(), Some(1_000_000_007 + 998_244_353));
        assert_eq!((a - b).to_u64(), Some(1_000_000_007 - 998_244_353));
    }

    #[test]
    fn wraparound() {
        // (p - 1) + 2 == 1
        let p_minus_1 = Fp::ZERO - Fp::ONE;
        assert_eq!(p_minus_1 + Fp::from_u64(2), Fp::ONE);
        // (p-1)^2 = p^2 - 2p + 1 == 1 (mod p)
        assert_eq!(p_minus_1.square(), Fp::ONE);
    }

    #[test]
    fn inverse_fermat() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = Fp::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fp::ONE);
            let s = Scalar::random(&mut rng);
            assert_eq!(s * s.invert().unwrap(), Scalar::ONE);
        }
        assert!(Fp::ZERO.invert().is_none());
    }

    #[test]
    fn batch_invert_matches_invert_and_skips_zeros() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut elems: Vec<Fp> = (0..17).map(|_| Fp::random(&mut rng)).collect();
        elems[3] = Fp::ZERO;
        elems[11] = Fp::ZERO;
        let expected: Vec<Fp> = elems
            .iter()
            .map(|e| e.invert().unwrap_or(Fp::ZERO))
            .collect();
        Fp::batch_invert(&mut elems);
        assert_eq!(elems, expected);
        // Degenerate shapes.
        Fp::batch_invert(&mut []);
        let mut zeros = [Fp::ZERO; 3];
        Fp::batch_invert(&mut zeros);
        assert_eq!(zeros, [Fp::ZERO; 3]);
        let mut one = [Scalar::from_u64(42)];
        Scalar::batch_invert(&mut one);
        assert_eq!(one[0], Scalar::from_u64(42).invert().unwrap());
    }

    #[test]
    fn sqrt_works() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut roots = 0;
        for _ in 0..20 {
            let a = Fp::random(&mut rng);
            let sq = a.square();
            let r = sq.sqrt().expect("square must have a root");
            assert!(r == a || r == -a);
            if a.sqrt().is_some() {
                roots += 1;
            }
        }
        // About half of random elements are QRs.
        assert!(roots > 2 && roots < 18, "roots = {roots}");
    }

    #[test]
    fn bytes_roundtrip_and_canonical() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = Scalar::random(&mut rng);
            assert_eq!(Scalar::from_bytes(&a.to_bytes()).unwrap(), a);
        }
        // The modulus itself is non-canonical.
        let m = Scalar::MODULUS.to_be_bytes();
        assert!(Scalar::from_bytes(&m).is_none());
        assert_eq!(Scalar::from_bytes_reduce(&m), Scalar::ZERO);
    }

    #[test]
    fn montgomery_constants_consistent() {
        // R·R⁻¹ = 1: ONE must round-trip to integer 1.
        assert_eq!(Fp::ONE.to_u256(), U256::ONE);
        assert_eq!(Scalar::ONE.to_u256(), U256::ONE);
    }

    /// The reduction that exploits `p = 2²⁵⁶ − c` is the generic one,
    /// limb for limb — on the values where its borrow chain and its top
    /// limbs are at their extremes, and at random.
    #[test]
    fn near_power_reduction_matches_generic() {
        let p = Fp::MODULUS;
        assert!(near_power_of_two(p));
        assert!(!near_power_of_two(Scalar::MODULUS));
        let c = p.limbs()[0].wrapping_neg();
        let mut operands = vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(c),
            U256::from_u64(c - 1),
            U256::from_u64(u64::MAX),
            U256::from_limbs([0, 1, 0, 0]),
            U256::from_limbs([0, 0, 0, 1 << 63]),
            U256::from_limbs([0, u64::MAX, u64::MAX, u64::MAX]),
            U256::from_limbs([u64::MAX, 0, 0, u64::MAX]),
            p.wrapping_sub(U256::ONE),
            p.wrapping_sub(U256::from_u64(2)),
            p.wrapping_sub(U256::from_u64(c)),
            Fp::R,
            Fp::R2,
        ];
        let mut rng = StdRng::seed_from_u64(10);
        operands.extend((0..40).map(|_| Fp::random(&mut rng).mont));
        for a in &operands {
            for b in &operands {
                assert_eq!(
                    mont_mul_limbs::<true>(a.limbs(), b.limbs(), p.limbs(), Fp::INV),
                    mont_mul_limbs::<false>(a.limbs(), b.limbs(), p.limbs(), Fp::INV),
                    "a = {a:?}, b = {b:?}"
                );
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Scalar::from_u64(3);
        let mut acc = Scalar::ONE;
        for _ in 0..13 {
            acc *= a;
        }
        assert_eq!(a.pow(U256::from_u64(13)), acc);
        assert_eq!(a.pow(U256::ZERO), Scalar::ONE);
    }

    fn arb_fp() -> impl Strategy<Value = Fp> {
        any::<[u8; 32]>().prop_map(|b| Fp::from_bytes_reduce(&b))
    }
    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<[u8; 32]>().prop_map(|b| Scalar::from_bytes_reduce(&b))
    }

    proptest! {
        #[test]
        fn prop_fp_field_axioms(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a + Fp::ZERO, a);
            prop_assert_eq!(a * Fp::ONE, a);
            prop_assert_eq!(a - a, Fp::ZERO);
            prop_assert_eq!(a + (-a), Fp::ZERO);
        }

        #[test]
        fn prop_scalar_field_axioms(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a - b, -(b - a));
        }

        #[test]
        fn prop_invert(a in arb_scalar()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.invert().unwrap(), Scalar::ONE);
        }

        #[test]
        fn prop_batch_invert_matches_per_element(
            elems in proptest::collection::vec(arb_fp(), 0..24),
            zero_at in any::<u64>(),
        ) {
            let mut elems = elems;
            if !elems.is_empty() {
                let i = zero_at as usize % elems.len();
                elems[i] = Fp::ZERO;
            }
            let expected: Vec<Fp> = elems
                .iter()
                .map(|e| e.invert().unwrap_or(Fp::ZERO))
                .collect();
            Fp::batch_invert(&mut elems);
            prop_assert_eq!(elems, expected);
        }

        #[test]
        fn prop_bytes_roundtrip(a in arb_fp()) {
            prop_assert_eq!(Fp::from_bytes(&a.to_bytes()).unwrap(), a);
        }
    }
}
