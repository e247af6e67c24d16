//! secp256k1 group arithmetic (short Weierstrass `y² = x³ + 7`).
//!
//! Points are held in Jacobian coordinates internally; the public API exposes
//! an opaque [`Point`] with group operations, scalar multiplication, 33-byte
//! compressed serialization, and deterministic hash-to-point (used to derive
//! independent Pedersen generators).

use crate::field::{Fp, Scalar};
use crate::sha256::Sha256;
use crate::u256::U256;

/// Curve coefficient `b` in `y² = x³ + b`.
fn curve_b() -> Fp {
    Fp::from_u64(7)
}

/// A point on secp256k1 (including the identity), in Jacobian coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fp,
    y: Fp,
    /// `z = 0` encodes the point at infinity.
    z: Fp,
}

impl Point {
    /// The identity element (point at infinity).
    pub const IDENTITY: Point = Point {
        x: Fp::ZERO,
        y: Fp::ZERO,
        z: Fp::ZERO,
    };

    /// The standard secp256k1 base point `G`.
    pub fn generator() -> Point {
        static GEN: std::sync::OnceLock<Point> = std::sync::OnceLock::new();
        *GEN.get_or_init(|| {
            let x =
                Fp::from_hex("79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798")
                    .expect("generator x constant");
            let y =
                Fp::from_hex("483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8")
                    .expect("generator y constant");
            let g = Point { x, y, z: Fp::ONE };
            debug_assert!(g.is_on_curve());
            g
        })
    }

    /// Constructs a point from affine coordinates, checking the curve
    /// equation.
    pub fn from_affine(x: Fp, y: Fp) -> Option<Point> {
        let p = Point { x, y, z: Fp::ONE };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// True iff this is the identity element.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Verifies the Jacobian curve equation `y² = x³ + b·z⁶`.
    pub fn is_on_curve(&self) -> bool {
        if self.is_identity() {
            return true;
        }
        let z2 = self.z.square();
        let z6 = z2.square() * z2;
        self.y.square() == self.x.square() * self.x + curve_b() * z6
    }

    /// Returns affine coordinates, or `None` for the identity.
    ///
    /// Costs one Fermat inversion; callers normalizing **several** points
    /// should use [`Point::batch_to_affine`], which amortizes that
    /// inversion across the whole slice via the Montgomery trick.
    pub fn to_affine(&self) -> Option<(Fp, Fp)> {
        if self.is_identity() {
            return None;
        }
        let zinv = self.z.invert().expect("nonzero z");
        let zinv2 = zinv.square();
        Some((self.x * zinv2, self.y * zinv2 * zinv))
    }

    /// Normalizes a slice of points to affine coordinates with **one**
    /// shared inversion ([`Fp::batch_invert`]) instead of one Fermat
    /// exponentiation per point. `None` entries are identities.
    pub fn batch_to_affine(points: &[Point]) -> Vec<Option<(Fp, Fp)>> {
        let mut zs: Vec<Fp> = points.iter().map(|p| p.z).collect();
        Fp::batch_invert(&mut zs);
        points
            .iter()
            .zip(zs)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    None
                } else {
                    let zinv2 = zinv.square();
                    Some((p.x * zinv2, p.y * zinv2 * zinv))
                }
            })
            .collect()
    }

    /// Point doubling (`a = 0` formulas).
    pub fn double(&self) -> Point {
        if self.is_identity() || self.y.is_zero() {
            return Point::IDENTITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (complete over the exceptional cases by dispatch).
    pub fn add(&self, other: &Point) -> Point {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * z2z2 * other.z;
        let s2 = other.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Point::IDENTITY;
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition `self + q` for an affine `q` (`Z₂ = 1`): 7M + 4S
    /// against the 12M + 4S of [`Point::add`] — what every nibble of a
    /// [`FixedBase`] multiplication pays. Complete by dispatch like
    /// `add`.
    fn add_affine(&self, q: &Affine) -> Point {
        if q.is_identity() {
            return *self;
        }
        if self.is_identity() {
            return q.to_point();
        }
        let z1z1 = self.z.square();
        let u2 = q.x * z1z1;
        let s2 = q.y * self.z * z1z1;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Point::IDENTITY;
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point negation.
    pub fn negate(&self) -> Point {
        if self.is_identity() {
            return *self;
        }
        Point {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication with a 4-bit fixed window.
    ///
    /// Doublings are skipped until the first set window, so small
    /// scalars cost proportionally less.
    pub fn mul(&self, k: &Scalar) -> Point {
        if k.is_zero() || self.is_identity() {
            return Point::IDENTITY;
        }
        let table = window_table(self);
        let bytes = k.to_bytes();
        let mut acc = Point::IDENTITY;
        let mut started = false;
        for byte in bytes {
            for nib in [byte >> 4, byte & 0x0f] {
                if started {
                    acc = acc.double().double().double().double();
                }
                if nib != 0 {
                    acc = acc.add(&table[nib as usize]);
                    started = true;
                }
            }
        }
        acc
    }

    /// `k·G` for the standard generator, via a process-wide [`FixedBase`]
    /// comb table (64 nibble positions × 15 affine multiples). Roughly 5×
    /// faster than the generic ladder; signing and lifted-ElGamal
    /// encryption are dominated by this operation.
    pub fn mul_generator(k: &Scalar) -> Point {
        static TABLE: std::sync::OnceLock<FixedBase> = std::sync::OnceLock::new();
        TABLE
            .get_or_init(|| FixedBase::new(&Point::generator()))
            .mul(k)
    }

    /// Simultaneous double-scalar multiplication `a·P + b·Q` (Shamir's
    /// trick): one shared doubling chain instead of two. Used on signature
    /// and proof verification paths.
    pub fn double_mul(a: &Scalar, p: &Point, b: &Scalar, q: &Point) -> Point {
        // 2-bit windows over both scalars simultaneously.
        let mut table = [[Point::IDENTITY; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                if i == 0 && j == 0 {
                    continue;
                }
                table[i][j] = if i > 0 {
                    table[i - 1][j].add(p)
                } else {
                    table[i][j - 1].add(q)
                };
            }
        }
        let ab = a.to_bytes();
        let bb = b.to_bytes();
        let mut acc = Point::IDENTITY;
        let mut started = false;
        for byte_idx in 0..32 {
            for shift in [6u8, 4, 2, 0] {
                if started {
                    acc = acc.double().double();
                }
                let wa = ((ab[byte_idx] >> shift) & 3) as usize;
                let wb = ((bb[byte_idx] >> shift) & 3) as usize;
                if wa != 0 || wb != 0 {
                    acc = acc.add(&table[wa][wb]);
                    started = true;
                }
            }
        }
        acc
    }

    /// Sum of `aᵢ·Pᵢ` over parallel slices — Straus/Pippenger multi-scalar
    /// multiplication with a size-adaptive window.
    ///
    /// Small inputs fall back to independent ladders; larger ones share one
    /// doubling chain and accumulate points into `2ʷ−1` buckets per window,
    /// which beats the naive mul-and-add loop by roughly `w`/2× at 64
    /// terms and more beyond. Proof batch verification and tally
    /// aggregation are built on this kernel.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn msm(scalars: &[Scalar], points: &[Point]) -> Point {
        assert_eq!(scalars.len(), points.len(), "msm: mismatched lengths");
        // Profiling hook: one atomic load when off (the default).
        let _t = ddemos_obs::scoped_ns("crypto.msm_ns", "msm");
        // Drop terms that contribute nothing (also keeps buckets dense).
        let pairs: Vec<(&Scalar, &Point)> = scalars
            .iter()
            .zip(points)
            .filter(|(k, p)| !k.is_zero() && !p.is_identity())
            .collect();
        let n = pairs.len();
        if n == 0 {
            return Point::IDENTITY;
        }
        if n <= 3 {
            return pairs
                .into_iter()
                .fold(Point::IDENTITY, |acc, (k, p)| acc.add(&p.mul(k)));
        }
        // Pick the window width minimizing the dominant cost:
        // windows × (n bucket inserts + 2·(2ʷ−1) bucket-chain adds).
        let w = (2..=12usize)
            .min_by_key(|&w| 256usize.div_ceil(w) * (n + (1usize << (w + 1))))
            .expect("nonempty window range");
        let digits: Vec<[u8; 32]> = pairs.iter().map(|(k, _)| k.to_bytes()).collect();
        let windows = 256usize.div_ceil(w);
        let mut acc = Point::IDENTITY;
        let mut buckets = vec![Point::IDENTITY; (1 << w) - 1];
        for win in (0..windows).rev() {
            if !acc.is_identity() {
                for _ in 0..w {
                    acc = acc.double();
                }
            }
            for b in buckets.iter_mut() {
                *b = Point::IDENTITY;
            }
            for (bytes, (_, p)) in digits.iter().zip(&pairs) {
                let d = window_digit(bytes, win * w, w);
                if d != 0 {
                    buckets[d - 1] = buckets[d - 1].add(p);
                }
            }
            // Suffix-sum the buckets: Σ d·bucket[d] with 2·(2ʷ−1) adds.
            let mut running = Point::IDENTITY;
            let mut window_sum = Point::IDENTITY;
            for b in buckets.iter().rev() {
                running = running.add(b);
                window_sum = window_sum.add(&running);
            }
            acc = acc.add(&window_sum);
        }
        acc
    }

    /// Sum of `aᵢ·Pᵢ` (now routed through [`Point::msm`]).
    pub fn multi_mul(pairs: &[(Scalar, Point)]) -> Point {
        let scalars: Vec<Scalar> = pairs.iter().map(|(k, _)| *k).collect();
        let points: Vec<Point> = pairs.iter().map(|(_, p)| *p).collect();
        Point::msm(&scalars, &points)
    }

    /// Batch [`Point::to_bytes`]: one Montgomery-trick inversion shared
    /// across the whole slice instead of one per point — this is what
    /// makes hashing many projective points (batch-verification
    /// transcripts) cheap.
    pub fn batch_to_bytes(points: &[Point]) -> Vec<[u8; 33]> {
        Point::batch_to_affine(points)
            .into_iter()
            .map(Point::compress)
            .collect()
    }

    /// Serializes to 33 bytes: `0x00 ‖ 0…` for the identity, else SEC1
    /// compressed (`0x02/0x03 ‖ x`).
    pub fn to_bytes(&self) -> [u8; 33] {
        Point::compress(self.to_affine())
    }

    /// The 33-byte encoding of affine coordinates as [`Point::to_affine`]
    /// returns them (`None` is the identity) — for callers that want the
    /// coordinates *and* the encoding from one inversion.
    pub fn compress(affine: Option<(Fp, Fp)>) -> [u8; 33] {
        let mut out = [0u8; 33];
        if let Some((x, y)) = affine {
            out[0] = 0x02 | (y.to_bytes()[31] & 1);
            out[1..].copy_from_slice(&x.to_bytes());
        }
        out
    }

    /// Parses the 33-byte encoding produced by [`Point::to_bytes`].
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<Point> {
        match bytes[0] {
            0x00 => {
                if bytes[1..].iter().all(|&b| b == 0) {
                    Some(Point::IDENTITY)
                } else {
                    None
                }
            }
            tag @ (0x02 | 0x03) => {
                let mut xb = [0u8; 32];
                xb.copy_from_slice(&bytes[1..]);
                let x = Fp::from_bytes(&xb)?;
                let rhs = x.square() * x + curve_b();
                let y = rhs.sqrt()?;
                let y = if (y.to_bytes()[31] & 1) == (tag & 1) {
                    y
                } else {
                    -y
                };
                Some(Point { x, y, z: Fp::ONE })
            }
            _ => None,
        }
    }

    /// Deterministically maps a domain-separated byte string to a curve
    /// point with unknown discrete log (try-and-increment).
    pub fn hash_to_point(domain: &[u8]) -> Point {
        for counter in 0u32.. {
            let mut h = Sha256::new();
            h.update(b"ddemos/hash-to-point/v1");
            h.update(domain);
            h.update(&counter.to_be_bytes());
            let digest = h.finalize();
            let x = Fp::from_bytes_reduce(&digest);
            let rhs = x.square() * x + curve_b();
            if let Some(y) = rhs.sqrt() {
                // Normalize parity for determinism.
                let y = if y.to_bytes()[31] & 1 == 0 { y } else { -y };
                let p = Point { x, y, z: Fp::ONE };
                debug_assert!(p.is_on_curve());
                return p;
            }
        }
        unreachable!("hash_to_point always terminates")
    }
}

/// Builds the 4-bit window table `[0·P, 1·P, …, 15·P]` of [`Point::mul`]
/// (even entries by doubling, odd by one addition).
fn window_table(p: &Point) -> [Point; 16] {
    let mut table = [Point::IDENTITY; 16];
    table[1] = *p;
    for i in 2..16 {
        table[i] = if i % 2 == 0 {
            table[i / 2].double()
        } else {
            table[i - 1].add(p)
        };
    }
    table
}

/// Extracts the `w`-bit window starting at bit `lo` (LSB order) of a
/// big-endian 32-byte scalar encoding.
fn window_digit(bytes: &[u8; 32], lo: usize, w: usize) -> usize {
    let mut d = 0usize;
    for bit in 0..w {
        let i = lo + bit;
        if i >= 256 {
            break;
        }
        d |= usize::from((bytes[31 - i / 8] >> (i % 8)) & 1) << bit;
    }
    d
}

/// A curve point in affine coordinates, as [`FixedBase`] stores its
/// entries (64 bytes against 96 in Jacobian form). `(0, 0)` is not on
/// the curve and stands for the identity.
#[derive(Clone, Copy, Debug)]
struct Affine {
    x: Fp,
    y: Fp,
}

impl Affine {
    const IDENTITY: Affine = Affine {
        x: Fp::ZERO,
        y: Fp::ZERO,
    };

    fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.is_zero()
    }

    fn to_point(self) -> Point {
        if self.is_identity() {
            return Point::IDENTITY;
        }
        Point {
            x: self.x,
            y: self.y,
            z: Fp::ONE,
        }
    }
}

/// A reusable precomputed comb table for repeated scalar multiplications
/// against one base point: 64 nibble positions × 15 multiples, held
/// affine, so a multiplication is at most 64 mixed additions and no
/// doubling — ~5× faster than the generic ladder after a one-time build
/// that costs about twenty multiplications.
///
/// [`Point::mul_generator`] is this structure instantiated once for `G`;
/// callers with their own hot base — the election ElGamal key, the Pedersen
/// `H`, a peer's verification key — build their own and reuse it.
#[derive(Clone, Debug)]
pub struct FixedBase {
    /// `table[pos][nib − 1] = nib · 16^pos · base` (pos from the least
    /// significant nibble).
    table: Vec<[Affine; 15]>,
}

impl FixedBase {
    /// Precomputes the comb table for `base`.
    ///
    /// The 64 `16^pos · base` come from one Jacobian doubling chain and
    /// are normalised together; their multiples are then filled level by
    /// level (2; 3–4; 5–8; 9–15) as *affine* sums `level·B + j·B`, with
    /// the slope denominators of a level inverted together across all
    /// positions. Five shared inversions and ~6 multiplications an entry,
    /// where building the rows in Jacobian form and normalising all 960
    /// entries afterwards costs ~23 an entry.
    pub fn new(base: &Point) -> FixedBase {
        let mut bases = Vec::with_capacity(64);
        let mut b = *base;
        for _ in 0..64 {
            bases.push(b);
            // b <<= 4 bits
            b = b.double().double().double().double();
        }
        let mut table: Vec<[Affine; 15]> = Point::batch_to_affine(&bases)
            .into_iter()
            .map(|affine| {
                let mut row = [Affine::IDENTITY; 15];
                if let Some((x, y)) = affine {
                    row[0] = Affine { x, y };
                }
                row
            })
            .collect();
        if base.is_identity() {
            return FixedBase { table };
        }
        // The group has prime order, so no multiple below 16 of a
        // non-identity point is the identity, two of them share an `x`
        // only if they are equal, and none has `y = 0`: every denominator
        // below inverts.
        for level in [1usize, 2, 4, 8] {
            // k·B = level·B + (k − level)·B; k = 2·level is the doubling.
            let multiples = level + 1..=(2 * level).min(15);
            let mut dens = Vec::with_capacity(64 * level);
            for row in &table {
                let top = row[level - 1];
                for k in multiples.clone() {
                    dens.push(if k == 2 * level {
                        top.y.double()
                    } else {
                        row[k - level - 1].x - top.x
                    });
                }
            }
            Fp::batch_invert(&mut dens);
            let mut inverses = dens.into_iter();
            for row in table.iter_mut() {
                let top = row[level - 1];
                for k in multiples.clone() {
                    let other = row[k - level - 1];
                    let inverse = inverses.next().expect("one denominator per entry");
                    let slope = if k == 2 * level {
                        let xx = top.x.square();
                        (xx.double() + xx) * inverse
                    } else {
                        (other.y - top.y) * inverse
                    };
                    let x = slope.square() - top.x - other.x;
                    row[k - 1] = Affine {
                        x,
                        y: slope * (top.x - x) - top.y,
                    };
                }
            }
        }
        FixedBase { table }
    }

    /// The base point this table was built for.
    pub fn base(&self) -> Point {
        self.table[0][0].to_point()
    }

    /// `k · base` with no doublings: one mixed addition per set nibble.
    pub fn mul(&self, k: &Scalar) -> Point {
        let bytes = k.to_bytes();
        let mut acc = Point::IDENTITY;
        // bytes are big-endian: byte i holds nibble positions (63-2i, 62-2i).
        for (i, byte) in bytes.iter().enumerate() {
            let hi_pos = 63 - 2 * i;
            let lo_pos = hi_pos - 1;
            let hi = (byte >> 4) as usize;
            let lo = (byte & 0x0f) as usize;
            if hi != 0 {
                acc = acc.add_affine(&self.table[hi_pos][hi - 1]);
            }
            if lo != 0 {
                acc = acc.add_affine(&self.table[lo_pos][lo - 1]);
            }
        }
        acc
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                // Cross-multiplied affine comparison avoids inversions.
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}
impl Eq for Point {}

impl std::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::add(&self, &rhs)
    }
}
impl std::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::add(&self, &rhs.negate())
    }
}
impl std::ops::Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        self.negate()
    }
}
impl std::ops::AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = Point::add(self, &rhs);
    }
}
impl std::iter::Sum for Point {
    fn sum<I: Iterator<Item = Point>>(iter: I) -> Point {
        iter.fold(Point::IDENTITY, |a, b| a + b)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_identity() {
            return write!(f, "Point(identity)");
        }
        let bytes = self.to_bytes();
        write!(f, "Point(")?;
        for b in &bytes[..9] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl std::hash::Hash for Point {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_bytes().hash(state);
    }
}

/// The group order as a 256-bit integer (`n` such that `n·G = 0`).
pub fn group_order() -> U256 {
    Scalar::MODULUS
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_on_curve() {
        assert!(Point::generator().is_on_curve());
    }

    #[test]
    fn known_double_vector() {
        // 2G from the standard secp256k1 test vectors: the compressed
        // public key for secret key 2 is 02‖c6047f94…9ee5 (even y).
        let two_g = Point::generator().double();
        let (x, y) = two_g.to_affine().unwrap();
        assert_eq!(
            x,
            Fp::from_hex("C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5")
                .unwrap()
        );
        assert_eq!(y.to_bytes()[31] & 1, 0, "2G has even y");
        let bytes = two_g.to_bytes();
        assert_eq!(bytes[0], 0x02);
        assert!(two_g.is_on_curve());
    }

    #[test]
    fn order_annihilates_generator() {
        // (n-1)·G = -G, hence n·G = identity.
        let n_minus_1 = Scalar::ZERO - Scalar::ONE;
        let p = Point::mul_generator(&n_minus_1);
        assert_eq!(p, Point::generator().negate());
        assert_eq!(p.add(&Point::generator()), Point::IDENTITY);
    }

    #[test]
    fn add_vs_double() {
        let g = Point::generator();
        assert_eq!(g.add(&g), g.double());
        let g3a = g.add(&g).add(&g);
        let g3b = g.mul(&Scalar::from_u64(3));
        assert_eq!(g3a, g3b);
    }

    #[test]
    fn identity_laws() {
        let g = Point::generator();
        assert_eq!(g.add(&Point::IDENTITY), g);
        assert_eq!(Point::IDENTITY.add(&g), g);
        assert_eq!(g.add(&g.negate()), Point::IDENTITY);
        assert_eq!(Point::IDENTITY.mul(&Scalar::from_u64(5)), Point::IDENTITY);
        assert_eq!(g.mul(&Scalar::ZERO), Point::IDENTITY);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let k = Scalar::random(&mut rng);
            let p = Point::mul_generator(&k);
            let bytes = p.to_bytes();
            assert_eq!(Point::from_bytes(&bytes).unwrap(), p);
        }
        let id = Point::IDENTITY.to_bytes();
        assert_eq!(Point::from_bytes(&id).unwrap(), Point::IDENTITY);
        assert!(Point::from_bytes(&[0xffu8; 33]).is_none());
    }

    #[test]
    fn mul_generator_matches_generic_ladder() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let k = Scalar::random(&mut rng);
            assert_eq!(Point::mul_generator(&k), Point::generator().mul(&k));
        }
        assert_eq!(Point::mul_generator(&Scalar::ZERO), Point::IDENTITY);
        assert_eq!(Point::mul_generator(&Scalar::ONE), Point::generator());
    }

    #[test]
    fn double_mul_matches_separate() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let p = Point::mul_generator(&Scalar::random(&mut rng));
            let q = Point::mul_generator(&Scalar::random(&mut rng));
            assert_eq!(Point::double_mul(&a, &p, &b, &q), p.mul(&a) + q.mul(&b));
        }
        let g = Point::generator();
        assert_eq!(
            Point::double_mul(&Scalar::ZERO, &g, &Scalar::ZERO, &g),
            Point::IDENTITY
        );
        assert_eq!(Point::double_mul(&Scalar::ONE, &g, &Scalar::ZERO, &g), g);
    }

    fn naive_msm(scalars: &[Scalar], points: &[Point]) -> Point {
        scalars
            .iter()
            .zip(points)
            .fold(Point::IDENTITY, |acc, (k, p)| acc.add(&p.mul(k)))
    }

    #[test]
    fn msm_matches_naive_across_sizes() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [0usize, 1, 2, 3, 4, 7, 17, 64] {
            let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
            let points: Vec<Point> = (0..n)
                .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
                .collect();
            assert_eq!(
                Point::msm(&scalars, &points),
                naive_msm(&scalars, &points),
                "n = {n}"
            );
        }
    }

    #[test]
    fn msm_handles_zero_scalars_and_identities() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = Point::generator();
        let mut scalars: Vec<Scalar> = (0..8).map(|_| Scalar::random(&mut rng)).collect();
        let mut points: Vec<Point> = (0..8)
            .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
            .collect();
        scalars[2] = Scalar::ZERO;
        points[5] = Point::IDENTITY;
        scalars[7] = Scalar::from_u64(1);
        points[7] = g;
        assert_eq!(Point::msm(&scalars, &points), naive_msm(&scalars, &points));
        assert_eq!(Point::msm(&[], &[]), Point::IDENTITY);
        assert_eq!(
            Point::msm(&vec![Scalar::ZERO; 9], &vec![g; 9]),
            Point::IDENTITY
        );
    }

    #[test]
    fn batch_to_affine_matches_per_point() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut points: Vec<Point> = (0..13)
            .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
            .collect();
        points[4] = Point::IDENTITY;
        points[9] = Point::IDENTITY;
        let batch = Point::batch_to_affine(&points);
        for (p, affine) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *affine);
        }
        let many = Point::batch_to_bytes(&points);
        for (p, bytes) in points.iter().zip(&many) {
            assert_eq!(p.to_bytes(), *bytes);
        }
        assert!(Point::batch_to_affine(&[]).is_empty());
    }

    #[test]
    fn fixed_base_matches_generic_mul() {
        let mut rng = StdRng::seed_from_u64(24);
        let base = Point::mul_generator(&Scalar::random(&mut rng));
        let table = FixedBase::new(&base);
        assert_eq!(table.base(), base);
        for _ in 0..8 {
            let k = Scalar::random(&mut rng);
            assert_eq!(table.mul(&k), base.mul(&k));
        }
        assert_eq!(table.mul(&Scalar::ZERO), Point::IDENTITY);
        assert_eq!(table.mul(&Scalar::ONE), base);
    }

    fn affine(p: &Point) -> Affine {
        p.to_affine()
            .map_or(Affine::IDENTITY, |(x, y)| Affine { x, y })
    }

    #[test]
    fn mixed_addition_exceptional_cases() {
        let mut rng = StdRng::seed_from_u64(25);
        let p = Point::mul_generator(&Scalar::random(&mut rng));
        let q = Point::mul_generator(&Scalar::random(&mut rng)).double();
        // identity + P, P + identity
        assert_eq!(Point::IDENTITY.add_affine(&affine(&p)), p);
        assert_eq!(q.add_affine(&Affine::IDENTITY), q);
        assert_eq!(
            Point::IDENTITY.add_affine(&Affine::IDENTITY),
            Point::IDENTITY
        );
        // P + P → doubling, from a Jacobian form with z ≠ 1
        assert_eq!(q.add_affine(&affine(&q)), q.double());
        // P + (−P) → identity
        assert_eq!(q.add_affine(&affine(&q.negate())), Point::IDENTITY);
        // the generic case agrees with the Jacobian addition
        assert_eq!(q.add_affine(&affine(&p)), q.add(&p));
        assert!(q.add_affine(&affine(&p)).is_on_curve());
    }

    #[test]
    fn fixed_base_edge_scalars_and_bases() {
        let mut rng = StdRng::seed_from_u64(26);
        let n_minus_1 = Scalar::ZERO - Scalar::ONE;
        // Scalars with zero nibbles: sparse bytes, one low nibble, one
        // high nibble, a single top bit.
        let mut sparse = [0u8; 32];
        sparse[3] = 0x0f;
        sparse[17] = 0xf0;
        sparse[31] = 0x01;
        let mut top = [0u8; 32];
        top[0] = 0x80;
        let edge = [
            Scalar::ZERO,
            Scalar::ONE,
            n_minus_1,
            Scalar::from_u64(16),
            Scalar::from_bytes_reduce(&sparse),
            Scalar::from_bytes_reduce(&top),
        ];
        let random = Point::mul_generator(&Scalar::random(&mut rng));
        for base in [random, Point::generator(), Point::IDENTITY] {
            let table = FixedBase::new(&base);
            assert_eq!(table.base(), base);
            for k in &edge {
                assert_eq!(table.mul(k), base.mul(k), "k = {k}");
            }
        }
    }

    #[test]
    fn hash_to_point_deterministic_and_distinct() {
        let a = Point::hash_to_point(b"pedersen-h");
        let b = Point::hash_to_point(b"pedersen-h");
        let c = Point::hash_to_point(b"other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_on_curve());
        assert!(!a.is_identity());
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<[u8; 32]>().prop_map(|b| Scalar::from_bytes_reduce(&b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_scalar_mul_distributes(a in arb_scalar(), b in arb_scalar()) {
            let g = Point::generator();
            let lhs = g.mul(&(a + b));
            let rhs = g.mul(&a).add(&g.mul(&b));
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_scalar_mul_associates(a in arb_scalar(), b in arb_scalar()) {
            let g = Point::generator();
            prop_assert_eq!(g.mul(&a).mul(&b), g.mul(&(a * b)));
        }

        #[test]
        fn prop_roundtrip(a in arb_scalar()) {
            let p = Point::mul_generator(&a);
            prop_assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
            prop_assert!(p.is_on_curve());
        }

        #[test]
        fn prop_msm_matches_naive(
            scalars in proptest::collection::vec(arb_scalar(), 0..12),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Point> = scalars
                .iter()
                .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
                .collect();
            prop_assert_eq!(
                Point::msm(&scalars, &points),
                naive_msm(&scalars, &points)
            );
        }

        #[test]
        fn prop_fixed_base_matches_ladder(
            b in arb_scalar(),
            k in arb_scalar(),
            zeroed in any::<u64>(),
        ) {
            // Clear the nibbles `zeroed` names, so skipped positions are
            // exercised as often as full ones.
            let mut bytes = k.to_bytes();
            for (i, byte) in bytes.iter_mut().enumerate() {
                if zeroed >> (2 * (i % 32)) & 1 == 1 {
                    *byte &= 0x0f;
                }
                if zeroed >> (2 * (i % 32) + 1) & 1 == 1 {
                    *byte &= 0xf0;
                }
            }
            let sparse = Scalar::from_bytes_reduce(&bytes);
            let base = Point::mul_generator(&b);
            let table = FixedBase::new(&base);
            for k in [k, sparse] {
                prop_assert_eq!(table.mul(&k), base.mul(&k));
                prop_assert_eq!(Point::mul_generator(&k), Point::generator().mul(&k));
                prop_assert_eq!(FixedBase::new(&Point::IDENTITY).mul(&k), Point::IDENTITY);
            }
        }

        #[test]
        fn prop_batch_to_affine_matches(a in arb_scalar(), b in arb_scalar()) {
            let points = [
                Point::mul_generator(&a),
                Point::IDENTITY,
                Point::mul_generator(&b).double(),
            ];
            let batch = Point::batch_to_affine(&points);
            for (p, affine) in points.iter().zip(&batch) {
                prop_assert_eq!(p.to_affine(), *affine);
            }
        }
    }
}
