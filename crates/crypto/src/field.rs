//! The two prime fields of secp256k1.
//!
//! * [`Fp`] — the base field (coordinates of curve points), built for its
//!   prime `p = 2²⁵⁶ − C` with `C = 2³² + 977`: a canonical value (`< p`)
//!   in four 64-bit limbs. A product is reduced by folding its high half
//!   back as `2²⁵⁶ ≡ C`, squaring has its own ten-product routine, the
//!   final reductions of `add`, `sub` and `mul` choose on a carry rather
//!   than compare limbs, and inversion and square root run libsecp256k1's
//!   addition chains (255 S + 15 M and 253 S + 13 M; square-and-multiply
//!   over `p − 2` takes 255 S + 248 M).
//! * [`Scalar`] — the scalar field (exponents, shares, secrets), in
//!   Montgomery form by a generic macro: the group order has no special
//!   shape. Its constants (Montgomery `R`, `R²`, `−n⁻¹ mod 2⁶⁴`) are
//!   derived at compile time from the modulus alone.
//!
//! What does not depend on the representation — exponentiation, batch
//! inversion, encodings, the operator traits — is written once for both
//! (`field_ops!`).
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

/// `acc + a·b + carry` as (low limb, high limb); cannot overflow.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry` as (sum, carry out).
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` as (difference, borrow out ∈ {0, 1}).
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Interleaved Montgomery multiplication (CIOS) of two values below the
/// odd modulus `p`, returning `a·b·2⁻²⁵⁶ mod p`; `inv = −p⁻¹ mod 2⁶⁴`.
/// Each of the four rounds adds `aᵢ·b` and then the multiple `m·p` that
/// clears the low limb, and drops that limb.
#[inline(always)]
fn mont_mul_limbs(a: [u64; 4], b: [u64; 4], p: [u64; 4], inv: u64) -> [u64; 4] {
    let mut t = [0u64; 6];
    for ai in a {
        // t += ai * b
        let mut carry: u64 = 0;
        for j in 0..4 {
            (t[j], carry) = mac(t[j], ai, b[j], carry);
        }
        (t[4], t[5]) = adc(t[4], carry, 0);
        // Reduce one limb: t = (t + m·p) / 2^64
        let m = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], m, p[0], 0);
        for j in 1..4 {
            (t[j - 1], carry) = mac(t[j], m, p[j], carry);
        }
        let (top, carry) = adc(t[4], carry, 0);
        t[3] = top;
        t[4] = t[5] + carry;
        t[5] = 0;
    }
    let r = U256::from_limbs([t[0], t[1], t[2], t[3]]);
    let p = U256::from_limbs(p);
    if t[4] != 0 || geq(r, p) {
        r.wrapping_sub(p).limbs()
    } else {
        r.limbs()
    }
}

/// What both fields provide on top of their own `ZERO`, `ONE`,
/// `from_u256_reduce`, `from_bytes`, `to_u256`, `is_zero`, `add`, `sub`,
/// `neg`, `mul`, `square` and `invert`.
macro_rules! field_ops {
    ($name:ident) => {
        impl $name {
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

            /// Montgomery-trick batch inversion: replaces every nonzero
            /// element with its inverse using a single field inversion plus
            /// `3(n−1)` multiplications, instead of one inversion per
            /// element. Zeros are left in place (the batch analogue of
            /// `invert` returning `None`).
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

macro_rules! mont_field {
    (
        $(#[$doc:meta])*
        $name:ident, modulus_limbs = $modulus:expr
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

            /// Additive identity.
            pub const ZERO: $name = $name { mont: U256::ZERO };
            /// Multiplicative identity.
            pub const ONE: $name = $name { mont: Self::R };

            /// Montgomery multiplication, `a·b·R⁻¹ mod p`
            /// ([`mont_mul_limbs`]).
            #[inline]
            fn mont_mul(a: U256, b: U256) -> U256 {
                U256::from_limbs(mont_mul_limbs(a.limbs(), b.limbs(), $modulus, Self::INV))
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

            /// Returns the canonical (non-Montgomery) integer value.
            pub fn to_u256(self) -> U256 {
                Self::mont_mul(self.mont, U256::ONE)
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

            /// Multiplicative inverse (`None` for zero), via Fermat.
            pub fn invert(self) -> Option<$name> {
                if self.is_zero() {
                    return None;
                }
                let e = Self::MODULUS.wrapping_sub(U256::from_u64(2));
                Some(self.pow(e))
            }
        }

        field_ops!($name);
    };
}

/// The limbs of the base field's prime `p = 2²⁵⁶ − 2³² − 977`.
const P: [u64; 4] = [
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// `C = 2²⁵⁶ − p = 2³² + 977`, so `2²⁵⁶ ≡ C (mod p)`.
const C: u64 = 0x1_0000_03D1;

/// Element of the secp256k1 base field (`p = 2²⁵⁶ − 2³² − 977`), held as
/// its canonical value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp {
    /// Little-endian limbs of the value, always `< p`.
    limbs: [u64; 4],
}

impl Fp {
    /// The field modulus.
    pub const MODULUS: U256 = U256::from_limbs(P);
    /// Additive identity.
    pub const ZERO: Fp = Fp { limbs: [0; 4] };
    /// Multiplicative identity.
    pub const ONE: Fp = Fp {
        limbs: [1, 0, 0, 0],
    };

    /// `r − p` if `r ≥ p` (with `carry`, the 2²⁵⁶ bit of a sum below
    /// `2p`), else `r`: `r ≥ p` exactly when `r + C` carries out.
    #[inline(always)]
    fn reduce_once(r: [u64; 4], carry: u64) -> Fp {
        let (s0, k) = adc(r[0], C, 0);
        let (s1, k) = adc(r[1], 0, k);
        let (s2, k) = adc(r[2], 0, k);
        let (s3, k) = adc(r[3], 0, k);
        Fp {
            limbs: if (carry | k) != 0 {
                [s0, s1, s2, s3]
            } else {
                r
            },
        }
    }

    /// Reduces a 512-bit product `lo + hi·2²⁵⁶ ≡ lo + hi·C`. That fold
    /// leaves `v = r + k·C` with `k < 2³⁴`, and `v ≥ p` exactly when
    /// `r + (k + 1)·C` carries out of 2²⁵⁶: then its low 256 bits are
    /// `v − p`, else subtracting the extra `C` gives `v`.
    #[inline(always)]
    fn reduce_wide(t: [u64; 8]) -> Fp {
        let (r0, k) = mac(t[0], t[4], C, 0);
        let (r1, k) = mac(t[1], t[5], C, k);
        let (r2, k) = mac(t[2], t[6], C, k);
        let (r3, k) = mac(t[3], t[7], C, k);
        let (w0, k) = mac(r0, k + 1, C, 0);
        let (w1, k) = adc(r1, k, 0);
        let (w2, k) = adc(r2, k, 0);
        let (w3, k) = adc(r3, k, 0);
        if k != 0 {
            return Fp {
                limbs: [w0, w1, w2, w3],
            };
        }
        let (d0, k) = sbb(w0, C, 0);
        let (d1, k) = sbb(w1, 0, k);
        let (d2, k) = sbb(w2, 0, k);
        let (d3, _) = sbb(w3, 0, k);
        Fp {
            limbs: [d0, d1, d2, d3],
        }
    }

    /// Constructs a field element from an integer `< 2⁶⁴`.
    pub fn from_u64(v: u64) -> Fp {
        Fp {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Constructs a field element from a canonical integer (reduced).
    pub fn from_u256_reduce(v: U256) -> Fp {
        Self::reduce_once(v.limbs(), 0)
    }

    /// Parses 32 big-endian bytes; rejects non-canonical encodings
    /// (values ≥ the modulus).
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Fp> {
        let limbs = U256::from_be_bytes(bytes).limbs();
        let fp = Self::reduce_once(limbs, 0);
        (fp.limbs == limbs).then_some(fp)
    }

    /// Returns the canonical integer value.
    pub fn to_u256(self) -> U256 {
        U256::from_limbs(self.limbs)
    }

    /// True iff this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Field addition.
    #[inline]
    #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
    pub fn add(self, rhs: Fp) -> Fp {
        let (a, b) = (self.limbs, rhs.limbs);
        let (s0, k) = adc(a[0], b[0], 0);
        let (s1, k) = adc(a[1], b[1], k);
        let (s2, k) = adc(a[2], b[2], k);
        let (s3, k) = adc(a[3], b[3], k);
        Self::reduce_once([s0, s1, s2, s3], k)
    }

    /// Field subtraction: on a borrow, `a − b + p ≡ a − b − C` (mod 2²⁵⁶),
    /// which the borrow guarantees is above `C`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
    pub fn sub(self, rhs: Fp) -> Fp {
        let (a, b) = (self.limbs, rhs.limbs);
        let (d0, k) = sbb(a[0], b[0], 0);
        let (d1, k) = sbb(a[1], b[1], k);
        let (d2, k) = sbb(a[2], b[2], k);
        let (d3, borrow) = sbb(a[3], b[3], k);
        if borrow == 0 {
            return Fp {
                limbs: [d0, d1, d2, d3],
            };
        }
        let (e0, k) = sbb(d0, C, 0);
        let (e1, k) = sbb(d1, 0, k);
        let (e2, k) = sbb(d2, 0, k);
        let (e3, _) = sbb(d3, 0, k);
        Fp {
            limbs: [e0, e1, e2, e3],
        }
    }

    /// Field negation.
    #[inline]
    #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
    pub fn neg(self) -> Fp {
        Fp::ZERO.sub(self)
    }

    /// Field multiplication: a schoolbook 512-bit product, then
    /// [`Fp::reduce_wide`].
    #[inline(always)]
    #[allow(clippy::should_implement_trait)] // value-semantics API; Ops impls forward here
    pub fn mul(self, rhs: Fp) -> Fp {
        let (a, b) = (self.limbs, rhs.limbs);
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                (t[i + j], carry) = mac(t[i + j], a[i], b[j], carry);
            }
            t[i + 4] = carry;
        }
        Self::reduce_wide(t)
    }

    /// Squaring: the six cross products once, doubled by a shift, plus
    /// the four squares — ten limb products against a multiplication's
    /// sixteen.
    #[inline(always)]
    pub fn square(self) -> Fp {
        let [a0, a1, a2, a3] = self.limbs;
        let (t1, k) = mac(0, a0, a1, 0);
        let (t2, k) = mac(0, a0, a2, k);
        let (t3, t4) = mac(0, a0, a3, k);
        let (t3, k) = mac(t3, a1, a2, 0);
        let (t4, t5) = mac(t4, a1, a3, k);
        let (t5, t6) = mac(t5, a2, a3, 0);
        let doubled = [
            0,
            t1 << 1,
            (t2 << 1) | (t1 >> 63),
            (t3 << 1) | (t2 >> 63),
            (t4 << 1) | (t3 >> 63),
            (t5 << 1) | (t4 >> 63),
            (t6 << 1) | (t5 >> 63),
            t6 >> 63,
        ];
        let (d0, k) = mac(0, a0, a0, 0);
        let (t1, k) = adc(doubled[1], k, 0);
        let (lo, hi) = mac(0, a1, a1, 0);
        let (t2, k) = adc(doubled[2], lo, k);
        let (t3, k) = adc(doubled[3], hi, k);
        let (lo, hi) = mac(0, a2, a2, 0);
        let (t4, k) = adc(doubled[4], lo, k);
        let (t5, k) = adc(doubled[5], hi, k);
        let (lo, hi) = mac(0, a3, a3, 0);
        let (t6, k) = adc(doubled[6], lo, k);
        let (t7, _) = adc(doubled[7], hi, k);
        Self::reduce_wide([d0, t1, t2, t3, t4, t5, t6, t7])
    }

    /// `self^(2ⁿ)`.
    fn square_n(self, n: usize) -> Fp {
        (0..n).fold(self, |x, _| x.square())
    }

    /// The shared head of libsecp256k1's inversion and square-root chains:
    /// `xₖ = self^(2ᵏ − 1)`, a run of `k` one bits, for `k` = 2, 22 and 223
    /// (built through 3, 6, 9, 11, 44, 88, 176 and 220; 222 S + 11 M).
    fn chain_blocks(self) -> (Fp, Fp, Fp) {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.square_n(3).mul(x3);
        let x9 = x6.square_n(3).mul(x3);
        let x11 = x9.square_n(2).mul(x2);
        let x22 = x11.square_n(11).mul(x11);
        let x44 = x22.square_n(22).mul(x22);
        let x88 = x44.square_n(44).mul(x44);
        let x176 = x88.square_n(88).mul(x88);
        let x220 = x176.square_n(44).mul(x44);
        let x223 = x220.square_n(3).mul(x3);
        (x2, x22, x223)
    }

    /// Multiplicative inverse (`None` for zero): `self^(p − 2)`, whose
    /// bits are 223 ones, 0, 22 ones, 0000 1 0 11 0 1 — 255 S + 15 M.
    pub fn invert(self) -> Option<Fp> {
        if self.is_zero() {
            return None;
        }
        let (x2, x22, x223) = self.chain_blocks();
        let t = x223.square_n(23).mul(x22);
        let t = t.square_n(5).mul(self);
        let t = t.square_n(3).mul(x2);
        Some(t.square_n(2).mul(self))
    }

    /// Square root (`p ≡ 3 mod 4`): `self^((p + 1)/4)`, whose bits are
    /// 223 ones, 0, 22 ones, 0000 11 00 — 253 S + 13 M, and one more
    /// squaring to check the root; `None` if no root exists.
    pub fn sqrt(self) -> Option<Fp> {
        let (x2, x22, x223) = self.chain_blocks();
        let t = x223.square_n(23).mul(x22);
        let root = t.square_n(6).mul(x2).square_n(2);
        (root.square() == self).then_some(root)
    }
}

field_ops!(Fp);

mont_field!(
    /// Element of the secp256k1 scalar field (the prime group order `n`).
    Scalar,
    modulus_limbs = [
        0xBFD2_5E8C_D036_4141,
        0xBAAE_DCE6_AF48_A03B,
        0xFFFF_FFFF_FFFF_FFFE,
        0xFFFF_FFFF_FFFF_FFFF,
    ]
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The base field by the generic Montgomery macro: the oracle [`Fp`]
    /// is checked against.
    #[allow(dead_code)] // the macro's whole API, of which the tests use part
    mod oracle {
        use super::super::*;
        mont_field!(FpMont, modulus_limbs = P);
    }
    use oracle::FpMont;

    fn to_mont(a: Fp) -> FpMont {
        FpMont::from_u256_reduce(a.to_u256())
    }

    /// `(p + 1)/4`, the square-root exponent.
    fn sqrt_exponent() -> U256 {
        let [l0, l1, l2, l3] = Fp::MODULUS.wrapping_add(U256::ONE).limbs();
        U256::from_limbs([
            (l0 >> 2) | (l1 << 62),
            (l1 >> 2) | (l2 << 62),
            (l2 >> 2) | (l3 << 62),
            l3 >> 2,
        ])
    }

    /// Operands at the ends of every carry and fold: 0, 1, p−1, p−2, C,
    /// C±1, 2⁶⁴−1, all-ones upper limbs, a lone top bit.
    fn edge_operands() -> Vec<U256> {
        let p = Fp::MODULUS;
        vec![
            U256::ZERO,
            U256::ONE,
            p.wrapping_sub(U256::ONE),
            p.wrapping_sub(U256::from_u64(2)),
            U256::from_u64(C),
            U256::from_u64(C - 1),
            U256::from_u64(C + 1),
            U256::from_u64(u64::MAX),
            U256::from_limbs([0, u64::MAX, u64::MAX, u64::MAX]),
            U256::from_limbs([u64::MAX, 0, 0, u64::MAX]),
            U256::from_limbs([0, 1, 0, 0]),
            U256::from_limbs([0, 0, 0, 1 << 63]),
            p.wrapping_sub(U256::from_u64(C)),
        ]
    }

    fn operands(seed: u64) -> Vec<Fp> {
        let mut rng = StdRng::seed_from_u64(seed);
        edge_operands()
            .into_iter()
            .map(Fp::from_u256_reduce)
            .chain((0..40).map(|_| Fp::random(&mut rng)))
            .collect()
    }

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
        assert_eq!(Scalar::ONE.to_u256(), U256::ONE);
        assert_eq!(FpMont::ONE.to_u256(), U256::ONE);
        assert_eq!(Fp::ONE.to_u256(), U256::ONE);
    }

    /// Every operation of the dedicated base field is the generic
    /// Montgomery field's over the same prime — on the operands where its
    /// carries, folds and selects are at their extremes, and at random.
    #[test]
    fn fp_matches_montgomery_oracle() {
        let ops = operands(10);
        for &a in &ops {
            let ma = to_mont(a);
            assert_eq!(a.square().to_u256(), ma.square().to_u256(), "square {a:?}");
            assert_eq!(
                a.invert().map(Fp::to_u256),
                ma.invert().map(FpMont::to_u256),
                "invert {a:?}"
            );
            let root = ma.pow(sqrt_exponent());
            let oracle_sqrt = (root.square() == ma).then(|| root.to_u256());
            assert_eq!(a.sqrt().map(Fp::to_u256), oracle_sqrt, "sqrt {a:?}");
            let bytes = a.to_bytes();
            assert_eq!(
                Fp::from_bytes(&bytes).map(Fp::to_u256),
                FpMont::from_bytes(&bytes).map(FpMont::to_u256),
                "from_bytes {a:?}"
            );
            for &b in &ops {
                let mb = to_mont(b);
                assert_eq!((a * b).to_u256(), (ma * mb).to_u256(), "{a:?} * {b:?}");
                assert_eq!((a + b).to_u256(), (ma + mb).to_u256(), "{a:?} + {b:?}");
                assert_eq!((a - b).to_u256(), (ma - mb).to_u256(), "{a:?} - {b:?}");
            }
            assert_eq!((-a).to_u256(), (-ma).to_u256(), "-{a:?}");
        }
    }

    /// The two chains are the exponentiations they stand for, squares
    /// and non-residues alike.
    #[test]
    fn chains_match_pow() {
        let p_minus_2 = Fp::MODULUS.wrapping_sub(U256::from_u64(2));
        let (mut residues, mut non_residues) = (0, 0);
        for a in operands(11) {
            if !a.is_zero() {
                assert_eq!(a.invert(), Some(a.pow(p_minus_2)), "invert {a:?}");
            }
            let root = a.pow(sqrt_exponent());
            if root.square() == a {
                residues += 1;
                assert_eq!(a.sqrt(), Some(root), "sqrt {a:?}");
            } else {
                non_residues += 1;
                assert_eq!(a.sqrt(), None, "non-residue {a:?}");
            }
        }
        assert!(residues > 5 && non_residues > 5);
        // −1 is a non-residue for p ≡ 3 (mod 4).
        assert_eq!((-Fp::ONE).sqrt(), None);
    }

    /// `from_bytes` rejects every value from `p` to `2²⁵⁶ − 1`: its ends,
    /// runs around them and inside, and a sample of the rest.
    #[test]
    fn from_bytes_rejects_every_non_canonical_value() {
        let p = Fp::MODULUS;
        let top = C - 1; // 2²⁵⁶ − 1 − p
        let mut offsets: Vec<u64> = (0..2048).chain(top - 2047..=top).collect();
        offsets.extend((0..2048).map(|i| (top / 2) - 1024 + i));
        let mut rng = StdRng::seed_from_u64(12);
        offsets.extend((0..4096).map(|_| rng.next_u64() % C));
        for k in offsets {
            let v = p.wrapping_add(U256::from_u64(k));
            assert!(Fp::from_bytes(&v.to_be_bytes()).is_none(), "p + {k}");
        }
        assert!(Fp::from_bytes(&U256::MAX.to_be_bytes()).is_none());
        let below = p.wrapping_sub(U256::ONE).to_be_bytes();
        assert_eq!(Fp::from_bytes(&below), Some(-Fp::ONE));
        // Reduction instead of rejection: p + k is k.
        assert_eq!(
            Fp::from_bytes_reduce(&U256::MAX.to_be_bytes()).to_u64(),
            Some(top)
        );
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
        fn prop_fp_matches_montgomery_oracle(a in arb_fp(), b in arb_fp()) {
            let (ma, mb) = (to_mont(a), to_mont(b));
            prop_assert_eq!((a * b).to_u256(), (ma * mb).to_u256());
            prop_assert_eq!(a.square().to_u256(), ma.square().to_u256());
            prop_assert_eq!((a - b).to_u256(), (ma - mb).to_u256());
            prop_assert_eq!(a.invert().map(Fp::to_u256), ma.invert().map(FpMont::to_u256));
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
