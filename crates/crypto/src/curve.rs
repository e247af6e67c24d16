//! secp256k1 group arithmetic (short Weierstrass `y² = x³ + 7`).
//!
//! Points are held in Jacobian coordinates internally; the public API exposes
//! an opaque [`Point`] with group operations, scalar multiplication and
//! 33-byte compressed serialization.
//!
//! Two kernels carry the batch work: [`Point::msm`] (Pippenger over
//! batch-affine buckets) and the fixed-base comb — [`FixedBase`] tables of
//! affine multiples, read one scalar at a time by [`FixedBase::mul`] or
//! many in lockstep by [`CombBatch`]. A table's digit width is fixed by its
//! role: signed 8-bit digits (264 KiB) for the generator and the election
//! key, read on every cast, set-up and publication; 7-bit (148 KiB) for a
//! peer's signature key, one a peer per replica; 5-bit (52 KiB) for any
//! other base. Both kernels halve their slots with one reducer
//! (`SlotReducer`), all the pairs of a round sharing one inversion, on
//! the field arithmetic [`crate::cpu`] picked for this process.

use crate::cpu;
use crate::field::{Fp, Scalar};

cpu::vector! {
    pub(crate) mod ifma;
}

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
    /// Costs one field inversion; callers normalizing **several** points
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
    /// shared inversion ([`Fp::batch_invert`]) instead of one inversion
    /// per point. `None` entries are identities.
    pub fn batch_to_affine(points: &[Point]) -> Vec<Option<(Fp, Fp)>> {
        Point::batch_normalize(points)
            .iter()
            .map(Affine::coords)
            .collect()
    }

    /// [`Point::batch_to_affine`] in the form the multi-scalar kernel
    /// takes ([`Point::msm_affine`]). Points that are already normalised
    /// (`z = 1`: decoded from bytes, or an earlier normalisation's
    /// output) are copied and stay out of the shared inversion; a slice
    /// of nothing else pays no inversion at all.
    pub(crate) fn batch_normalize(points: &[Point]) -> Vec<Affine> {
        // Zero marks "nothing to invert", which `batch_invert` skips.
        let mut zs: Vec<Fp> = points
            .iter()
            .map(|p| if p.z == Fp::ONE { Fp::ZERO } else { p.z })
            .collect();
        if zs.iter().any(|z| !z.is_zero()) {
            Fp::batch_invert(&mut zs);
        }
        points
            .iter()
            .zip(zs)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    Affine::IDENTITY
                } else if zinv.is_zero() {
                    Affine { x: p.x, y: p.y }
                } else {
                    let zinv2 = zinv.square();
                    Affine {
                        x: p.x * zinv2,
                        y: p.y * zinv2 * zinv,
                    }
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
    /// against the 12M + 4S of [`Point::add`] — what every digit of a
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

    /// `k·G` for the standard generator, via the process-wide comb table
    /// [`FixedBase::generator`]. Roughly 5× faster than the generic
    /// ladder; signing and lifted-ElGamal encryption are dominated by
    /// this operation.
    pub fn mul_generator(k: &Scalar) -> Point {
        FixedBase::generator().mul(k)
    }

    /// Sum of `aᵢ·Pᵢ` over parallel slices — Pippenger multi-scalar
    /// multiplication. Proof batch verification, signature batch
    /// verification and tally aggregation are built on this kernel.
    ///
    /// The points are normalised once (one shared inversion, none for
    /// points that already are) and the scalars recoded into signed
    /// `w`-bit digits, so a window has `2^(w−1)` buckets. A window's
    /// points are sorted by bucket and every bucket reduced pairwise by
    /// affine additions that share one field inversion a round — 6
    /// multiplications an addition against Jacobian 16 — and as many
    /// windows as fit a fixed buffer are sorted together, so that small
    /// sums pay for few inversions too. `w`, and whether a term or two
    /// are better off on independent ladders, is [`msm_plan`]'s choice
    /// from the number of terms alone.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn msm(scalars: &[Scalar], points: &[Point]) -> Point {
        assert_eq!(scalars.len(), points.len(), "msm: mismatched lengths");
        // Profiling hook: one atomic load when off (the default).
        let _t = ddemos_obs::scoped_ns("crypto.msm_ns", "msm");
        if msm_plan(points.len()) == MsmPlan::Ladders {
            // Not worth an inversion: the ladders take the points as they are.
            return ladders(scalars, points);
        }
        pippenger(scalars, &Point::batch_normalize(points))
    }

    /// [`Point::msm`] for a caller that holds the points normalised
    /// already ([`Point::batch_normalize`]) — the batch verifiers, which
    /// need the affine coordinates for their transcripts anyway.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub(crate) fn msm_affine(scalars: &[Scalar], points: &[Affine]) -> Point {
        assert_eq!(scalars.len(), points.len(), "msm: mismatched lengths");
        let _t = ddemos_obs::scoped_ns("crypto.msm_ns", "msm");
        pippenger(scalars, points)
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

    /// The 65-byte uncompressed encoding of affine coordinates as
    /// [`Point::batch_to_affine`] returns them: SEC1 `0x04 ‖ x ‖ y`, and
    /// `0x00 ‖ 0…` for the identity. Bulk data goes this way: a slice
    /// normalised with one shared inversion encodes at no further field
    /// operation, and [`Point::from_uncompressed`] parses without the
    /// square root a compressed point costs.
    pub fn uncompressed(affine: Option<(Fp, Fp)>) -> [u8; 65] {
        let mut out = [0u8; 65];
        if let Some((x, y)) = affine {
            out[0] = 0x04;
            out[1..33].copy_from_slice(&x.to_bytes());
            out[33..].copy_from_slice(&y.to_bytes());
        }
        out
    }

    /// Parses the encoding produced by [`Point::uncompressed`]: canonical
    /// coordinates on the curve, checked by the curve equation alone.
    pub fn from_uncompressed(bytes: &[u8; 65]) -> Option<Point> {
        let mut x = [0u8; 32];
        let mut y = [0u8; 32];
        x.copy_from_slice(&bytes[1..33]);
        y.copy_from_slice(&bytes[33..]);
        match bytes[0] {
            0x00 if bytes[1..].iter().all(|&b| b == 0) => Some(Point::IDENTITY),
            0x04 => Point::from_affine(Fp::from_bytes(&x)?, Fp::from_bytes(&y)?),
            _ => None,
        }
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

/// A curve point in affine coordinates: what [`FixedBase`] stores (64
/// bytes against 96 in Jacobian form) and what the multi-scalar kernel
/// adds. `(0, 0)` is not on the curve and stands for the identity. Laid
/// out as `x` then `y`, which the vector reducer loads a point at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Affine {
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

    /// The coordinates as [`Point::to_affine`] returns them.
    pub(crate) fn coords(&self) -> Option<(Fp, Fp)> {
        (!self.is_identity()).then_some((self.x, self.y))
    }

    pub(crate) fn to_point(self) -> Point {
        if self.is_identity() {
            return Point::IDENTITY;
        }
        Point {
            x: self.x,
            y: self.y,
            z: Fp::ONE,
        }
    }

    fn negate(&self) -> Affine {
        Affine {
            x: self.x,
            y: -self.y,
        }
    }

    /// The 33-byte encoding [`Point::to_bytes`] produces, at no
    /// inversion.
    pub(crate) fn to_bytes(self) -> [u8; 33] {
        Point::compress(self.coords())
    }

    /// The denominator of the slope of the line through `self` and `q`
    /// (the tangent when they coincide); zero when their sum needs no
    /// slope — an identity operand, or `q = −self`. No curve point has
    /// `y = 0` (the group order is odd), so a tangent's `2y` is nonzero.
    fn slope_denominator(&self, q: &Affine) -> Fp {
        if self.is_identity() || q.is_identity() {
            Fp::ZERO
        } else if self.x != q.x {
            q.x - self.x
        } else if self.y == q.y {
            self.y.double()
        } else {
            Fp::ZERO
        }
    }

    /// `self + q`, given the inverse of [`Affine::slope_denominator`]
    /// (zero where that is zero): 2M + 1S, plus the three
    /// multiplications a shared inversion costs an element.
    fn add_with_inverse(&self, q: &Affine, inverse: Fp) -> Affine {
        if inverse.is_zero() {
            return if self.is_identity() {
                *q
            } else if q.is_identity() {
                *self
            } else {
                Affine::IDENTITY
            };
        }
        let slope = if self.x == q.x {
            let xx = self.x.square();
            (xx.double() + xx) * inverse
        } else {
            (q.y - self.y) * inverse
        };
        let x = slope.square() - self.x - q.x;
        Affine {
            x,
            y: slope * (self.x - x) - self.y,
        }
    }
}

// ---------------------------------------------------------------------
// The multi-scalar kernel
// ---------------------------------------------------------------------

/// How [`Point::msm`] evaluates a sum of `n` terms ([`msm_plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsmPlan {
    /// Independent [`Point::mul`] ladders.
    Ladders,
    /// Pippenger over signed `w`-bit digits: the points of `group`
    /// windows at a time sorted by bucket and the buckets reduced by
    /// batch-affine addition, one inversion a round for the whole group.
    Buckets { w: usize, group: usize },
}

/// Most points a group of windows sorts at once when one window has
/// fewer, so that several windows share each round's inversion — every
/// window of a sum under sixty terms, two of a 2k-term one. 256 KiB of
/// sort buffer: within a few percent of the speed of four times as much
/// (DESIGN.md §4.2), and every thread that ever verifies a burst keeps
/// its largest buffer in its allocator arena, which at 1 MiB showed as
/// +11 MiB of `peak_rss_mb` on the seven-replica TCP workload.
const GROUP_POINTS: usize = 1 << 12;

/// Field multiplications (a squaring counts as one) of the operations
/// [`msm_plan`] weighs: the formulas of [`Point::double`], [`Point::add`],
/// [`Point::add_affine`], [`Fp::invert`]'s addition chain (255 S + 15 M),
/// and one point's part of [`Point::batch_normalize`] (share of the
/// inversion included). The reducer's own addition is its field
/// arithmetic's (`cpu::Kernels::cost_affine`).
const COST_DOUBLE: usize = 7;
const COST_ADD: usize = 16;
const COST_MIXED: usize = 11;
const COST_INVERT: usize = 270;
const COST_NORMALIZE: usize = 7;

/// Windows of the signed `w`-bit recoding of a 256-bit scalar: the top
/// one must reach a zero bit, so that its digit is not negative.
const fn signed_windows(w: usize) -> usize {
    257usize.div_ceil(w)
}

/// Picks the cheapest way to sum `n` terms, counting field
/// multiplications. A window costs its terms a batch-affine addition
/// each, its `2^(w−1)` buckets a step of the running-sum chain each (a
/// mixed and a full addition; the first of either meets the identity and
/// is free), and its group an inversion a round. Nothing here is fitted:
/// the choice lands within 5 % of the fastest window at every size
/// measured (DESIGN.md §4.2).
fn msm_plan(n: usize) -> MsmPlan {
    // 4-bit fixed window: its table, 252 doublings, ~60 additions.
    const LADDER: usize = 14 * COST_ADD + 252 * COST_DOUBLE + 60 * COST_ADD;
    let affine = cpu::kernels().cost_affine;
    let mut best = (n * LADDER, MsmPlan::Ladders);
    for w in 2..=14usize {
        let windows = signed_windows(w);
        let buckets = 1usize << (w - 1);
        let filled = buckets.min(n);
        let group = (GROUP_POINTS / n.max(1)).clamp(1, windows);
        // Halvings that empty the fullest bucket: mean load plus spread.
        let load = n.div_ceil(buckets);
        let rounds = (load + load / 2 + 2).ilog2() as usize + 1;
        let window = (n - filled) * affine
            + filled.saturating_sub(1) * COST_MIXED
            + (buckets - 1) * COST_ADD;
        let cost =
            windows * window + windows.div_ceil(group) * rounds * COST_INVERT + 256 * COST_DOUBLE;
        if cost < best.0 {
            best = (cost, MsmPlan::Buckets { w, group });
        }
    }
    best.1
}

/// `Σ kᵢ·Pᵢ` by one ladder a term.
fn ladders(scalars: &[Scalar], points: &[Point]) -> Point {
    scalars
        .iter()
        .zip(points)
        .fold(Point::IDENTITY, |acc, (k, p)| acc.add(&p.mul(k)))
}

/// The signed digit of window `win` of `k` (little-endian limbs) in the
/// `w`-bit Booth recoding: `k = Σ dⱼ·2^(jw)` with `|dⱼ| ≤ 2^(w−1)`,
/// each digit read from its own `w` bits and the one below them, so no
/// carry runs between windows.
fn booth_digit(k: &[u64; 4], win: usize, w: usize) -> i16 {
    // The w + 1 bits from `lo − 1` up (bit −1 and bits ≥ 256 read zero).
    let lo = win * w;
    let mask = (1u64 << (w + 1)) - 1;
    let bits = if lo == 0 {
        k[0] << 1
    } else {
        let (limb, shift) = ((lo - 1) / 64, (lo - 1) % 64);
        let low = k.get(limb).map_or(0, |l| l >> shift);
        let high = if shift + w + 1 > 64 {
            k.get(limb + 1).map_or(0, |l| l << (64 - shift))
        } else {
            0
        };
        low | high
    } & mask;
    // The top bit weighs −2^w against the rest: a set top bit makes the
    // digit the negated complement.
    if bits >> w == 0 {
        ((bits + 1) >> 1) as i16
    } else {
        -(((mask - bits + 1) >> 1) as i16)
    }
}

/// A bucket reduction round pays for its inversion only while it halves
/// enough buckets: each pair costs an affine addition there instead of a
/// mixed one in the running-sum chain. Below this many pairs the chain
/// takes the buckets as they stand.
fn round_min_pairs() -> usize {
    COST_INVERT / (COST_MIXED - cpu::kernels().cost_affine)
}

/// The pairwise batch-affine reduction under both kernels — the buckets
/// of [`bucket_sum`] and the outputs of [`CombBatch`] — with the scratch
/// of a round (its slope denominators and their prefix products, or on
/// the vector field arithmetic each lane's suffix products), kept so that
/// a caller reducing buffer after buffer allocates once.
struct SlotReducer {
    round: HalveRound,
    denominators: Vec<Fp>,
    prefix: Vec<Fp>,
}

/// One round of [`SlotReducer::halve`]'s pair additions, `points`,
/// `starts` and `lens` as there, the last two arguments scratch:
/// [`add_pairs`] on [`Fp`], or the vector kernel this process runs
/// (`cpu::Kernels::halve_round`).
pub(crate) type HalveRound = fn(&mut [Affine], &[u32], &[u32], &mut Vec<Fp>, &mut Vec<Fp>);

impl SlotReducer {
    fn new(round: HalveRound) -> SlotReducer {
        SlotReducer {
            round,
            denominators: Vec::new(),
            prefix: Vec::new(),
        }
    }

    /// Halves every slot round by round, slot `i` being
    /// `points[starts[i]..][..lens[i]]`: its points are added in pairs by
    /// the affine chord or tangent ([`Affine::add_with_inverse`]; identity
    /// operands, `P + P` and `P + (−P)` are exact), all the pairs of a
    /// round across every slot sharing one inversion, and a slot of `len`
    /// points becomes one of `⌈len/2⌉`. Stops when no slot holds a pair,
    /// or before the first round that `round_pays` (given the slots'
    /// lengths) declines, and leaves what the slots hold then to the
    /// caller.
    fn halve(
        &mut self,
        points: &mut [Affine],
        starts: &[u32],
        lens: &mut [u32],
        round_pays: impl Fn(&[u32]) -> bool,
    ) {
        loop {
            if lens.iter().all(|&len| len < 2) || !round_pays(lens) {
                return;
            }
            (self.round)(
                points,
                starts,
                lens,
                &mut self.denominators,
                &mut self.prefix,
            );
            for (&start, len) in starts.iter().zip(lens.iter_mut()) {
                let slot = &mut points[start as usize..][..*len as usize];
                if slot.len() % 2 == 1 {
                    slot[slot.len() / 2] = slot[slot.len() - 1];
                }
                *len = len.div_ceil(2);
            }
        }
    }
}

/// A round's pair additions on [`Fp`], the portable field arithmetic of
/// [`SlotReducer`]: slot position `j` becomes the sum of the slot's points
/// `2j` and `2j + 1` (the odd point is the caller's to move), every
/// denominator inverted by one batch inversion over `denominators` and
/// `prefix`.
pub(crate) fn add_pairs(
    points: &mut [Affine],
    starts: &[u32],
    lens: &[u32],
    denominators: &mut Vec<Fp>,
    prefix: &mut Vec<Fp>,
) {
    denominators.clear();
    for (&start, &len) in starts.iter().zip(lens) {
        let slot = &points[start as usize..][..len as usize];
        denominators.extend(
            slot.chunks_exact(2)
                .map(|pair| pair[0].slope_denominator(&pair[1])),
        );
    }
    Fp::batch_invert_with(denominators, prefix);
    let mut inverses = denominators.iter();
    for (&start, &len) in starts.iter().zip(lens) {
        let slot = &mut points[start as usize..][..len as usize];
        for j in 0..slot.len() / 2 {
            let inverse = *inverses.next().expect("one denominator per pair");
            slot[j] = slot[2 * j].add_with_inverse(&slot[2 * j + 1], inverse);
        }
    }
}

/// Sums each run of `slot` consecutive points of `points` (the last run
/// may be shorter) by the batch-affine reducer alone, every round run, on
/// the field arithmetic this process runs ([`crate::cpu::backend`]) or,
/// with `portable`, on [`Fp`]. Public for the micro benchmark's reducer
/// rows; the points should be normalised (`z = 1`), as the kernels' are.
#[doc(hidden)]
pub fn reduce_slots(points: &[Point], slot: usize, portable: bool) -> Vec<Point> {
    let mut affine = Point::batch_normalize(points);
    let starts: Vec<u32> = (0..affine.len()).step_by(slot).map(|s| s as u32).collect();
    let mut lens: Vec<u32> = starts
        .iter()
        .map(|&s| slot.min(affine.len() - s as usize) as u32)
        .collect();
    let round = if portable {
        add_pairs
    } else {
        cpu::kernels().halve_round
    };
    SlotReducer::new(round).halve(&mut affine, &starts, &mut lens, |_| true);
    starts
        .iter()
        .zip(&lens)
        .map(|(&s, &len)| {
            affine[s as usize..][..len as usize]
                .first()
                .map_or(Point::IDENTITY, |p| p.to_point())
        })
        .collect()
}

/// Canonical limbs of the scalars for the recoding; a term that
/// contributes nothing (an identity point) reads as zero and never meets
/// a bucket.
fn scalar_limbs(scalars: &[Scalar], points: &[Affine]) -> Vec<[u64; 4]> {
    scalars
        .iter()
        .zip(points)
        .map(|(k, p)| {
            if p.is_identity() {
                [0; 4]
            } else {
                k.to_u256().limbs()
            }
        })
        .collect()
}

/// The multi-scalar multiplication proper, over normalised points.
fn pippenger(scalars: &[Scalar], points: &[Affine]) -> Point {
    let ks = scalar_limbs(scalars, points);
    let live = ks.iter().filter(|k| **k != [0; 4]).count();
    match msm_plan(live) {
        MsmPlan::Ladders => {
            let points: Vec<Point> = points.iter().map(|p| p.to_point()).collect();
            ladders(scalars, &points)
        }
        MsmPlan::Buckets { w, group } => bucket_sum(&ks, points, live, w, group),
    }
}

/// `Σ kᵢ·Pᵢ` for scalars given as limbs, `live` of them nonzero, by
/// Pippenger's method over signed `w`-bit digits.
///
/// For `group` windows at a time: recode, counting-sort the signed points
/// by `(window, bucket)`, then halve every bucket round by round
/// ([`SlotReducer::halve`]) until (all but) every bucket holds a single
/// affine point, which the running-sum chain takes by mixed addition.
/// Every buffer is sized once and reused by every group.
fn bucket_sum(ks: &[[u64; 4]], points: &[Affine], live: usize, w: usize, group: usize) -> Point {
    let n = ks.len();
    let buckets = 1usize << (w - 1);
    let mut digits = vec![0i16; group * n];
    // Slot `g·buckets + d − 1` is bucket `d` of the group's `g`-th window;
    // its points are `sorted[starts[slot]..][..lens[slot]]`.
    let mut starts = vec![0u32; group * buckets];
    let mut lens = vec![0u32; group * buckets];
    let mut sorted = vec![Affine::IDENTITY; group * live];
    let mut reducer = SlotReducer::new(cpu::kernels().halve_round);
    let min_pairs = round_min_pairs();
    let mut acc = Point::IDENTITY;
    let mut hi = signed_windows(w);
    while hi > 0 {
        let lo = hi.saturating_sub(group);
        let slot_of = |win: usize, d: i16| (win - lo) * buckets + usize::from(d.unsigned_abs()) - 1;
        // Recode and count.
        lens.fill(0);
        for win in lo..hi {
            let row = &mut digits[(win - lo) * n..][..n];
            for (digit, k) in row.iter_mut().zip(ks) {
                *digit = booth_digit(k, win, w);
                if *digit != 0 {
                    lens[slot_of(win, *digit)] += 1;
                }
            }
        }
        let mut total = 0u32;
        for (start, len) in starts.iter_mut().zip(&lens) {
            *start = total;
            total += len;
        }
        // Scatter: `lens` counts up again as each slot fills.
        lens.fill(0);
        for win in lo..hi {
            let row = &digits[(win - lo) * n..][..n];
            for (&digit, p) in row.iter().zip(points) {
                if digit != 0 {
                    let slot = slot_of(win, digit);
                    sorted[(starts[slot] + lens[slot]) as usize] =
                        if digit < 0 { p.negate() } else { *p };
                    lens[slot] += 1;
                }
            }
        }
        reducer.halve(&mut sorted, &starts, &mut lens, |lens| {
            lens.iter().map(|&len| len as usize / 2).sum::<usize>() >= min_pairs
        });
        // Chain, most significant window first: `acc·2^w + Σ d·bucket[d]`,
        // with `running` collecting the buckets from the highest filled
        // one down and `sum` collecting `running`, so that bucket `d` is
        // counted `d` times.
        for win in (lo..hi).rev() {
            if !acc.is_identity() {
                for _ in 0..w {
                    acc = acc.double();
                }
            }
            let slots = (win - lo) * buckets..(win - lo + 1) * buckets;
            let top = lens[slots.clone()].iter().rposition(|&len| len != 0);
            let mut running = Point::IDENTITY;
            let mut sum = Point::IDENTITY;
            for slot in slots.take(top.map_or(0, |top| top + 1)).rev() {
                for p in &sorted[starts[slot] as usize..][..lens[slot] as usize] {
                    running = running.add_affine(p);
                }
                sum = sum.add(&running);
            }
            acc = acc.add(&sum);
        }
        hi = lo;
    }
    acc
}

// ---------------------------------------------------------------------
// The fixed-base comb and its batched kernel
// ---------------------------------------------------------------------

/// Digit width of a table [`FixedBase::new`] builds — one a caller makes
/// for a base of its own and uses a few thousand times at most: 52
/// positions × 16 multiples, 52 KiB.
const COMB_WINDOW: usize = 5;

/// Digit width of the tables read on every cast, set-up and
/// publication: the process-wide generator table and the election key's
/// ([`crate::elgamal::PreparedKey`]). 33 positions × 128 multiples,
/// 264 KiB: ~33 additions a scalar where 5-bit digits take ~50.
pub(crate) const WIDE_COMB_WINDOW: usize = 8;

/// Digit width of a per-peer signature table
/// ([`crate::schnorr::PreparedVerifier`]): 37 positions × 64 multiples,
/// 148 KiB, ~37 additions a scalar. A replica holds one for each of its
/// peers, so it is one step narrower than the shared tables.
pub(crate) const PEER_COMB_WINDOW: usize = 7;

/// Field multiplications to finish the slots `lens` of a [`CombBatch`]
/// without another reduction round: what each holds beyond one point is
/// added by mixed addition, and every output so left Jacobian is
/// normalised, all of them with one shared inversion.
fn chain_cost(lens: &[u32]) -> usize {
    let chained = lens.iter().filter(|&&len| len > 1);
    let additions: usize = chained.clone().map(|&len| len as usize - 1).sum();
    match chained.count() {
        0 => 0,
        outputs => additions * COST_MIXED + COST_INVERT + outputs * COST_NORMALIZE,
    }
}

/// Whether [`CombBatch`]'s slots `lens` are finished cheaper with another
/// reduction round than without: a round costs its inversion and an
/// affine addition a pair, and may be what lets a later one bring every
/// slot to a single affine point, which then needs no normalisation; so
/// every count of further rounds is weighed against stopping here. A
/// batch of one signature check (two terms, ~70 entries) stops at once
/// and is added as [`FixedBase::mul`] adds; one of two runs one round.
fn comb_round_pays(lens: &[u32]) -> bool {
    let affine = cpu::kernels().cost_affine;
    let stop = chain_cost(lens);
    let mut lens = lens.to_vec();
    let mut rounds = 0;
    loop {
        let pairs: usize = lens.iter().map(|&len| len as usize / 2).sum();
        if pairs == 0 {
            return false;
        }
        rounds += COST_INVERT + pairs * affine;
        for len in &mut lens {
            *len = len.div_ceil(2);
        }
        if rounds + chain_cost(&lens) < stop {
            return true;
        }
    }
}

/// A reusable precomputed comb table for repeated scalar multiplications
/// against one base point: `⌈257/w⌉` positions of signed `w`-bit digits ×
/// `2^(w−1)` multiples, held affine, so a multiplication is one addition
/// a nonzero digit and no doubling. The width is the table's role's:
/// `WIDE_COMB_WINDOW` for `G` and the election key,
/// `PEER_COMB_WINDOW` for a peer's signature key, `COMB_WINDOW` for
/// any other base. [`FixedBase::mul`] adds the entries one scalar at a
/// time by mixed addition; [`CombBatch`] adds those of many scalars in
/// lockstep by batch-affine addition, at about 60 % of that a scalar.
///
/// [`FixedBase::generator`] is this structure instantiated once for `G`;
/// callers with their own hot base — the election ElGamal key, a peer's
/// verification key — build their own and reuse it.
#[derive(Clone, Debug)]
pub struct FixedBase {
    /// Digit width `w`.
    window: usize,
    /// `table[pos · 2^(w−1) + d − 1] = d · 2^(w·pos) · base` (pos from
    /// the least significant digit).
    table: Vec<Affine>,
}

impl FixedBase {
    /// Precomputes the comb table for `base` at `COMB_WINDOW`.
    pub fn new(base: &Point) -> FixedBase {
        FixedBase::with_window(base, COMB_WINDOW)
    }

    /// Precomputes the comb table for `base` at digit width `window`.
    ///
    /// The `⌈257/w⌉` position bases `2^(w·pos) · base` come from one
    /// Jacobian doubling chain and are normalised together; their
    /// multiples are then filled level by level (2; 3–4; 5–8; …) as
    /// *affine* sums `level·B + j·B`, with the slope denominators of a
    /// level inverted together across all positions. `w` shared
    /// inversions and ~6 multiplications an entry, where building the
    /// rows in Jacobian form and normalising every entry afterwards costs
    /// ~23 an entry.
    pub(crate) fn with_window(base: &Point, window: usize) -> FixedBase {
        let (positions, multiples) = (signed_windows(window), 1usize << (window - 1));
        let mut bases = Vec::with_capacity(positions);
        let mut b = *base;
        for _ in 0..positions {
            bases.push(b);
            for _ in 0..window {
                b = b.double();
            }
        }
        let mut table = vec![Affine::IDENTITY; positions * multiples];
        for (row, base) in table
            .chunks_exact_mut(multiples)
            .zip(Point::batch_normalize(&bases))
        {
            row[0] = base;
        }
        if base.is_identity() {
            return FixedBase { window, table };
        }
        // The group has prime order, so no multiple up to 2^(w−1) of a
        // non-identity point is the identity, two of them share an `x`
        // only if they are equal, and none has `y = 0`: every denominator
        // below inverts.
        let mut level = 1;
        while level < multiples {
            // k·B = level·B + (k − level)·B; k = 2·level is the doubling.
            let ks = level + 1..=2 * level;
            let mut dens = Vec::with_capacity(positions * level);
            for row in table.chunks_exact(multiples) {
                let top = row[level - 1];
                dens.extend(
                    ks.clone()
                        .map(|k| top.slope_denominator(&row[k - level - 1])),
                );
            }
            Fp::batch_invert(&mut dens);
            let mut inverses = dens.into_iter();
            for row in table.chunks_exact_mut(multiples) {
                let top = row[level - 1];
                for k in ks.clone() {
                    let inverse = inverses.next().expect("one denominator per entry");
                    row[k - 1] = top.add_with_inverse(&row[k - level - 1], inverse);
                }
            }
            level *= 2;
        }
        FixedBase { window, table }
    }

    /// The process-wide table of the standard generator `G`, at
    /// `WIDE_COMB_WINDOW`.
    pub fn generator() -> &'static FixedBase {
        static TABLE: std::sync::OnceLock<FixedBase> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| FixedBase::with_window(&Point::generator(), WIDE_COMB_WINDOW))
    }

    /// The base point this table was built for.
    pub fn base(&self) -> Point {
        self.table[0].to_point()
    }

    /// Positions of the table: the most entries a scalar reads.
    fn positions(&self) -> usize {
        signed_windows(self.window)
    }

    /// The table entries that sum to `k · base`, `k` given as canonical
    /// limbs: one for each nonzero digit of its signed recoding
    /// ([`booth_digit`]), negated where the digit is.
    fn entries<'a>(&'a self, k: &'a [u64; 4]) -> impl Iterator<Item = Affine> + 'a {
        let multiples = 1 << (self.window - 1);
        self.table
            .chunks_exact(multiples)
            .enumerate()
            .filter_map(move |(pos, row)| {
                let digit = booth_digit(k, pos, self.window);
                let entry = row.get(usize::from(digit.unsigned_abs()).checked_sub(1)?)?;
                Some(if digit < 0 { entry.negate() } else { *entry })
            })
    }

    /// `k · base` with no doublings: one mixed addition per nonzero digit.
    pub fn mul(&self, k: &Scalar) -> Point {
        self.entries(&k.to_u256().limbs())
            .fold(Point::IDENTITY, |acc, entry| acc.add_affine(&entry))
    }

    /// `kᵢ · base` for every scalar of a slice, normalised (`z = 1`, or
    /// the identity): one [`CombBatch`] of one-term outputs.
    pub fn mul_many(&self, scalars: &[Scalar]) -> Vec<Point> {
        let points = self.mul_many_affine(scalars);
        points.into_iter().map(Affine::to_point).collect()
    }

    /// [`FixedBase::mul_many`] in the form the signer wants.
    pub(crate) fn mul_many_affine(&self, scalars: &[Scalar]) -> Vec<Affine> {
        let mut batch = CombBatch::new();
        for k in scalars {
            batch.push(&[(self, *k)]);
        }
        batch.evaluate_affine()
    }
}

/// A batch of short sums of fixed-base multiples — `r·pk + bit·G`,
/// `(z̃ − u)·pk − c̃·G`, `k·G`, a signature's `s·G − e·PK` — evaluated
/// together: the comb entries of every term are gathered into one slot
/// an output, and all slots are halved in lockstep by the batch-affine
/// reducer the multi-scalar kernel's buckets use ([`SlotReducer`]): 6
/// field multiplications an addition against the 11 of
/// [`FixedBase::mul`]'s mixed one, and the sums come out affine, so
/// nothing is normalised afterwards. Outputs are taken as many at a time
/// as fit [`GROUP_POINTS`] gathered entries (each term reads at most its
/// own table's positions), whatever the size of the batch.
///
/// A round runs only while it pays (`comb_round_pays`): a batch too
/// small for a round's inversion — one signature's `k·G`, one signature
/// check — falls through the reducer untouched and is summed by the same
/// mixed additions as [`FixedBase::mul`].
#[derive(Default)]
pub struct CombBatch<'a> {
    /// Every output's terms, scalars as canonical limbs.
    terms: Vec<(&'a FixedBase, [u64; 4])>,
    /// `ends[i]`: one past the last term of output `i`.
    ends: Vec<usize>,
}

impl<'a> CombBatch<'a> {
    /// An empty batch.
    pub fn new() -> CombBatch<'a> {
        CombBatch::default()
    }

    /// Appends the output `Σ scalar · base(table)` over `terms` (the
    /// identity for none).
    pub fn push(&mut self, terms: &[(&'a FixedBase, Scalar)]) {
        let live = terms.iter().filter(|(_, k)| !k.is_zero());
        self.terms
            .extend(live.map(|(table, k)| (*table, k.to_u256().limbs())));
        self.ends.push(self.terms.len());
    }

    /// Every output in push order, normalised (`z = 1`, or the
    /// identity).
    pub fn evaluate(&self) -> Vec<Point> {
        let points = self.evaluate_affine();
        points.into_iter().map(Affine::to_point).collect()
    }

    /// [`CombBatch::evaluate`], affine.
    pub(crate) fn evaluate_affine(&self) -> Vec<Affine> {
        let mut out = Vec::with_capacity(self.ends.len());
        let entries = |terms: &[(&FixedBase, [u64; 4])]| -> usize {
            terms.iter().map(|(table, _)| table.positions()).sum()
        };
        let capacity = entries(&self.terms).min(GROUP_POINTS);
        let mut gathered: Vec<Affine> = Vec::with_capacity(capacity);
        // Slot `i` of a chunk — an output's entries — is
        // `gathered[starts[i]..][..lens[i]]`.
        let mut starts: Vec<u32> = Vec::new();
        let mut lens: Vec<u32> = Vec::new();
        let mut reducer = SlotReducer::new(cpu::kernels().halve_round);
        let mut sums: Vec<Point> = Vec::new();
        let mut ends = self.ends.iter().peekable();
        let mut term = 0;
        while ends.peek().is_some() {
            gathered.clear();
            starts.clear();
            lens.clear();
            // Gather outputs while the next is sure to fit (the first
            // always goes in: a sum of more terms than the buffer holds
            // grows it).
            while let Some(&&end) = ends.peek() {
                let width = entries(&self.terms[term..end]);
                if !starts.is_empty() && gathered.len() + width > GROUP_POINTS {
                    break;
                }
                let start = gathered.len();
                for (table, k) in &self.terms[term..end] {
                    gathered.extend(table.entries(k));
                }
                starts.push(start as u32);
                lens.push((gathered.len() - start) as u32);
                term = end;
                ends.next();
            }
            reducer.halve(&mut gathered, &starts, &mut lens, comb_round_pays);
            // What a slot still holds beyond one point, the chain adds;
            // a single point is copied (`z = 1`) at no inversion.
            sums.clear();
            sums.extend(starts.iter().zip(&lens).map(|(&start, &len)| {
                gathered[start as usize..][..len as usize]
                    .iter()
                    .fold(Point::IDENTITY, |acc, entry| acc.add_affine(entry))
            }));
            out.extend(Point::batch_normalize(&sums));
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// Points with known discrete logs, so that `Σ kᵢ·Pᵢ` has a closed
    /// form — `(Σ kᵢ·rᵢ)·G` — at sizes where the naive loop would take
    /// seconds.
    fn known_log_terms(n: usize, seed: u64) -> (Vec<Scalar>, Vec<Point>, Point) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let logs: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let points = logs.iter().map(Point::mul_generator).collect();
        let sum = scalars.iter().zip(&logs).map(|(k, r)| *k * *r).sum();
        (scalars, points, Point::mul_generator(&sum))
    }

    /// The same point with `z ≠ 1`.
    fn rescaled(p: &Point, z: u64) -> Point {
        let z = Fp::from_u64(z);
        Point {
            x: p.x * z.square(),
            y: p.y * z.square() * z,
            z: p.z * z,
        }
    }

    #[test]
    fn msm_matches_closed_form_at_every_plan_boundary() {
        // Where the ladders hand over to the buckets, where a group
        // shrinks to one window (one sort buffer of `GROUP_POINTS`), and
        // the production sizes.
        let first_bucketed = (1..64)
            .find(|&n| msm_plan(n) != MsmPlan::Ladders)
            .expect("ladders lose to the buckets within a few terms");
        assert!(first_bucketed > 1, "one term is one ladder");
        assert_eq!(msm_plan(first_bucketed - 1), MsmPlan::Ladders);
        let half = GROUP_POINTS / 2;
        assert!(matches!(msm_plan(half), MsmPlan::Buckets { group: 2, .. }));
        assert!(matches!(
            msm_plan(half + 1),
            MsmPlan::Buckets { group: 1, .. }
        ));
        for n in [
            first_bucketed - 1,
            first_bucketed,
            first_bucketed + 1,
            600,
            half,
            half + 1,
            8192,
        ] {
            let (scalars, points, expected) = known_log_terms(n, 27 + n as u64);
            assert_eq!(Point::msm(&scalars, &points), expected, "n = {n}");
            // The batch verifiers' entry: the same points, normalised.
            let affine = Point::batch_normalize(&points);
            assert_eq!(Point::msm_affine(&scalars, &affine), expected, "n = {n}");
        }
    }

    /// Terms built to meet every exceptional case of the bucket
    /// reduction: a point repeated under one scalar (equal digits in one
    /// bucket: a doubling), a point and its negative under one scalar (a
    /// cancellation, leaving an identity in the bucket), identities, and
    /// scalars whose recoding is all edges.
    fn adversarial_terms(seed: u64, n: usize) -> (Vec<Scalar>, Vec<Point>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<Point> = (0..3)
            .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
            .collect();
        let shared = Scalar::random(&mut rng);
        let mut half = [0u8; 32];
        rng.fill_bytes(&mut half[16..]);
        let mut top = [0u8; 32];
        top[0] = 0x80;
        let edge = [
            Scalar::ZERO,
            Scalar::ONE,
            -Scalar::ONE,
            shared,
            -shared,
            Scalar::from_bytes_reduce(&half),
            Scalar::from_bytes_reduce(&top),
        ];
        let mut scalars = Vec::with_capacity(n);
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            let pick = rng.next_u32();
            scalars.push(match pick % 10 {
                i @ 0..=6 => edge[i as usize],
                7 => shared,
                _ => Scalar::random(&mut rng),
            });
            let p = pool[(pick >> 8) as usize % pool.len()];
            let p = match (pick >> 16) % 8 {
                0 => Point::IDENTITY,
                1 | 2 => p.negate(),
                _ => p,
            };
            // Half of them off `z = 1`, half normalised as off the wire.
            points.push(if (pick >> 24) % 2 == 0 {
                rescaled(&p, u64::from(pick >> 25) + 2)
            } else {
                Point::from_bytes(&p.to_bytes()).expect("own encoding")
            });
        }
        (scalars, points)
    }

    #[test]
    fn bucket_sum_is_exact_for_every_window_and_group_shape() {
        let (scalars, points) = adversarial_terms(31, 48);
        let expected = naive_msm(&scalars, &points);
        assert_eq!(Point::msm(&scalars, &points), expected);
        let affine = Point::batch_normalize(&points);
        let ks = scalar_limbs(&scalars, &affine);
        let live = ks.iter().filter(|k| **k != [0; 4]).count();
        // Narrowest and widest digits; one window a group, a last group
        // cut short (52 windows in sevens), every window in one group.
        for (w, group) in [(2, 1), (2, 129), (3, 5), (5, 7), (8, 33), (13, 3), (14, 19)] {
            assert_eq!(
                bucket_sum(&ks, &affine, live, w, group),
                expected,
                "w = {w}, group = {group}"
            );
        }
    }

    #[test]
    fn booth_digits_recompose_the_scalar() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut scalars: Vec<Scalar> = (0..8).map(|_| Scalar::random(&mut rng)).collect();
        scalars.extend([Scalar::ZERO, Scalar::ONE, -Scalar::ONE]);
        for w in COMB_WIDTHS {
            scalars.extend(comb_digit_patterns(w));
        }
        for w in 2..=14usize {
            for k in &scalars {
                let limbs = k.to_u256().limbs();
                let radix = Scalar::from_u64(1 << w);
                let mut sum = Scalar::ZERO;
                for win in (0..signed_windows(w)).rev() {
                    let d = booth_digit(&limbs, win, w);
                    assert!(d.unsigned_abs() <= 1 << (w - 1), "w = {w}, digit {d}");
                    let magnitude = Scalar::from_u64(u64::from(d.unsigned_abs()));
                    sum = sum * radix + if d < 0 { -magnitude } else { magnitude };
                }
                assert_eq!(sum, *k, "w = {w}");
            }
        }
    }

    /// The digit widths of the tables in use (`COMB_WINDOW`,
    /// `PEER_COMB_WINDOW`, `WIDE_COMB_WINDOW`).
    const COMB_WIDTHS: [usize; 3] = [COMB_WINDOW, PEER_COMB_WINDOW, WIDE_COMB_WINDOW];

    /// Scalars whose recoding at window `w` is all edges, over the whole
    /// windows below bit 250: every digit of the largest magnitude, signs
    /// alternating (windows `10…0`, `01…1`, …), and every digit but the
    /// two ends zero (a run of ones).
    fn comb_digit_patterns(w: usize) -> [Scalar; 2] {
        let from_bits = |bit: &dyn Fn(usize) -> bool| {
            let mut bytes = [0u8; 32];
            for i in (0..250 / w * w).filter(|&i| bit(i)) {
                bytes[31 - i / 8] |= 1 << (i % 8);
            }
            Scalar::from_bytes_reduce(&bytes)
        };
        let extremes = from_bits(&|i| {
            let (win, at) = (i / w, i % w);
            if win % 2 == 0 {
                at == w - 1
            } else {
                at != w - 1
            }
        });
        [extremes, from_bits(&|_| true)]
    }

    #[test]
    fn comb_digit_patterns_are_what_they_claim() {
        for w in COMB_WIDTHS {
            let [extremes, ones] = comb_digit_patterns(w);
            let digits = |k: &Scalar| -> Vec<i16> {
                let limbs = k.to_u256().limbs();
                (0..signed_windows(w))
                    .map(|pos| booth_digit(&limbs, pos, w))
                    .collect()
            };
            let (max, full) = (1i16 << (w - 1), 250 / w);
            for (pos, d) in digits(&extremes)[..full].iter().enumerate() {
                assert_eq!(
                    *d,
                    if pos % 2 == 0 { -max } else { max },
                    "w = {w}, digit {pos}"
                );
            }
            let ones = digits(&ones);
            assert_eq!((ones[0], ones[full]), (-1, 1), "w = {w}");
            assert!(ones[1..full].iter().all(|&d| d == 0), "w = {w}");
        }
    }

    /// Each role's table has its own width and size: the generator's and
    /// the election key's 8-bit digits (33 × 128 entries, 264 KiB), a
    /// peer key's 7-bit ones (37 × 64, 148 KiB), 5-bit for any other base
    /// (52 × 16, 52 KiB).
    #[test]
    fn comb_widths_are_fixed_per_role() {
        let mut rng = StdRng::seed_from_u64(40);
        let key = crate::schnorr::SigningKey::generate(&mut rng).verifying_key();
        let (_, pk) = crate::elgamal::keygen(&mut rng);
        let election = crate::elgamal::PreparedKey::new(&pk);
        let peer = crate::schnorr::PreparedVerifier::new(&key);
        let base = Point::mul_generator(&Scalar::random(&mut rng));
        let other = FixedBase::new(&base);
        let roles = [
            ("generator", FixedBase::generator(), 8, 33, 264),
            ("election key", election.table(), 8, 33, 264),
            ("peer key", peer.table(), 7, 37, 148),
            ("any other base", &other, 5, 52, 52),
        ];
        for (role, table, window, positions, kib) in roles {
            assert_eq!(table.window, window, "{role}");
            assert_eq!(table.positions(), positions, "{role}");
            assert_eq!(table.table.len(), positions << (window - 1), "{role}");
            assert_eq!(std::mem::size_of_val(&table.table[..]), kib << 10, "{role}");
        }
    }

    #[test]
    fn fixed_base_build_matches_repeated_addition() {
        // The level-wise affine build against the definition, at every
        // width in use: entry `d − 1` of row `pos` is `d · 2^(w·pos) ·
        // base`.
        let base = Point::mul_generator(&Scalar::from_u64(0xD0D0));
        for w in COMB_WIDTHS {
            let table = FixedBase::with_window(&base, w);
            assert_eq!(table.table.len(), signed_windows(w) << (w - 1));
            let mut row_base = base;
            for row in table.table.chunks_exact(1 << (w - 1)) {
                let mut multiple = Point::IDENTITY;
                for entry in row {
                    multiple += row_base;
                    assert_eq!(entry.to_point(), multiple, "w = {w}");
                }
                for _ in 0..w {
                    row_base = row_base.double();
                }
            }
            assert!(table.table.iter().all(|e| e.to_point().is_on_curve()));
            // The identity base: a table of identities.
            let identity = FixedBase::with_window(&Point::IDENTITY, w);
            assert!(identity.table.iter().all(Affine::is_identity));
        }
    }

    /// At every width in use, one table at a time and mixed in one batch:
    /// `mul` and [`CombBatch`] are `Point::mul` for 0, 1, n − 1, every
    /// power of two, the edge recodings, and scalars whose top whole
    /// window is negative (its digit borrows from the position above).
    #[test]
    fn fixed_base_widths_match_the_ladder() {
        let mut rng = StdRng::seed_from_u64(41);
        let base = Point::mul_generator(&Scalar::random(&mut rng));
        let tables = COMB_WIDTHS.map(|w| FixedBase::with_window(&base, w));
        let mut scalars = vec![Scalar::ZERO, Scalar::ONE, -Scalar::ONE];
        let mut power = Scalar::ONE;
        for _ in 0..256 {
            scalars.push(power);
            power = power + power;
        }
        for w in COMB_WIDTHS {
            scalars.extend(comb_digit_patterns(w));
            // The top bit of the last whole window set, and random bits
            // below it.
            let top = w * (signed_windows(w) - 1) - 1;
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            bytes[..31 - top / 8].fill(0);
            bytes[31 - top / 8] &= (1u8 << (top % 8)) - 1;
            bytes[31 - top / 8] |= 1 << (top % 8);
            let k = Scalar::from_bytes_reduce(&bytes);
            let limbs = k.to_u256().limbs();
            assert!(booth_digit(&limbs, signed_windows(w) - 2, w) < 0, "w = {w}");
            scalars.push(k);
        }
        let g = FixedBase::generator();
        let mut batch = CombBatch::new();
        let mut expected = Vec::new();
        for k in &scalars {
            let want = base.mul(k);
            for table in &tables {
                assert_eq!(table.mul(k), want, "w = {}, k = {k}", table.window);
                batch.push(&[(table, *k)]);
                expected.push(want);
            }
            // 5 + 7 − 8 bits of the same base, and a peer-width check's
            // shape against the generator's table.
            batch.push(&[(&tables[0], *k), (&tables[1], *k), (&tables[2], -*k)]);
            expected.push(want);
            batch.push(&[(g, *k), (&tables[1], -*k)]);
            expected.push(Point::generator().mul(k).add(&want.negate()));
        }
        assert_eq!(batch.evaluate(), expected);
        // One output at a time: no reduction round, the chain alone.
        for (k, want) in scalars.iter().zip(expected.chunks_exact(5)).take(8) {
            let mut one = CombBatch::new();
            one.push(&[(g, *k), (&tables[1], -*k)]);
            assert_eq!(one.evaluate(), [want[4]], "k = {k}");
        }
    }

    /// `outputs` sums over two tables, one or two terms each, with what
    /// each must come to by [`FixedBase::mul`] and [`Point::add`].
    type Sum<'a> = Vec<(&'a FixedBase, Scalar)>;
    fn random_sums<'a>(
        tables: [&'a FixedBase; 2],
        outputs: usize,
        seed: u64,
    ) -> (Vec<Sum<'a>>, Vec<Point>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sums: Vec<Sum<'a>> = (0..outputs)
            .map(|_| {
                let pick = rng.next_u32();
                let first = (tables[pick as usize % 2], Scalar::random(&mut rng));
                match (pick >> 8) % 3 {
                    0 => vec![first],
                    1 => vec![first, (tables[0], Scalar::ONE)],
                    _ => vec![first, (tables[1], Scalar::random(&mut rng))],
                }
            })
            .collect();
        let expected = sums.iter().map(|sum| one_at_a_time(sum)).collect();
        (sums, expected)
    }

    fn one_at_a_time(sum: &[(&FixedBase, Scalar)]) -> Point {
        sum.iter()
            .fold(Point::IDENTITY, |acc, (table, k)| acc.add(&table.mul(k)))
    }

    fn evaluate(sums: &[Sum<'_>]) -> Vec<Point> {
        let mut batch = CombBatch::new();
        for sum in sums {
            batch.push(sum);
        }
        let points = batch.evaluate();
        assert_eq!(points.len(), sums.len());
        // Normalised, whichever of the reducer and the chain finished them.
        assert!(points.iter().all(|p| p.is_identity() || p.z == Fp::ONE));
        points
    }

    #[test]
    fn comb_batch_matches_one_at_a_time_at_every_size() {
        // Through one signature's worth (no round), the sizes where the
        // last rounds drop out, a full chunk (~78 terms) and past it.
        let mut rng = StdRng::seed_from_u64(35);
        let pk = FixedBase::new(&Point::mul_generator(&Scalar::random(&mut rng)));
        let (sums, expected) = random_sums([FixedBase::generator(), &pk], 130, 36);
        for n in 0..=130 {
            assert_eq!(evaluate(&sums[..n]), expected[..n], "{n} outputs");
        }
        // One table, one term an output: the signer's entry.
        let scalars: Vec<Scalar> = sums.iter().map(|sum| sum[0].1).collect();
        for n in [0, 1, 2, 79, 130] {
            let expected: Vec<Point> = scalars[..n].iter().map(|k| pk.mul(k)).collect();
            assert_eq!(pk.mul_many(&scalars[..n]), expected, "{n} scalars");
        }
    }

    #[test]
    fn comb_batch_edge_scalars_bases_and_sums() {
        let mut rng = StdRng::seed_from_u64(37);
        let base = Point::mul_generator(&Scalar::random(&mut rng));
        let (table, g) = (FixedBase::new(&base), FixedBase::generator());
        let identity = FixedBase::new(&Point::IDENTITY);
        let k = Scalar::random(&mut rng);
        let [extremes, ones] = comb_digit_patterns(COMB_WINDOW);
        // Each sum with its value by the generic ladder.
        let mut sums: Vec<Sum<'_>> = Vec::new();
        let mut expected: Vec<Point> = Vec::new();
        for e in [Scalar::ZERO, Scalar::ONE, -Scalar::ONE, extremes, ones, k] {
            sums.push(vec![(&table, e)]);
            expected.push(base.mul(&e));
            sums.push(vec![(&identity, e), (g, e)]);
            expected.push(Point::generator().mul(&e));
            // Two terms that cancel: the identity out of a slot that is
            // not empty.
            sums.push(vec![(&table, e), (&table, -e)]);
            expected.push(Point::IDENTITY);
            sums.push(vec![(&table, e), (&table, e)]);
            expected.push(base.mul(&(e + e)));
        }
        // A one-digit term listed over and over fills its slot with one
        // point: every pair of every round is a tangent (64 copies: six
        // rounds of nothing else; 13: odd ones carried along).
        for copies in [13u64, 64] {
            sums.push(vec![(&table, Scalar::ONE); copies as usize]);
            expected.push(base.mul(&Scalar::from_u64(copies)));
        }
        sums.push(vec![]);
        sums.push(vec![(&identity, k)]);
        expected.extend([Point::IDENTITY; 2]);
        // On their own the last rounds are left to the chain; padded past
        // a chunk, every round runs.
        assert_eq!(evaluate(&sums), expected);
        let (padding, padding_expected) = random_sums([g, &table], 60, 38);
        sums.extend(padding);
        expected.extend(padding_expected);
        assert_eq!(evaluate(&sums), expected);
    }

    #[test]
    fn comb_batch_takes_a_sum_wider_than_its_buffer() {
        let mut rng = StdRng::seed_from_u64(39);
        let table = FixedBase::new(&Point::mul_generator(&Scalar::random(&mut rng)));
        let terms = GROUP_POINTS / table.positions() + 20;
        let wide: Sum<'_> = (0..terms)
            .map(|_| (&table, Scalar::random(&mut rng)))
            .collect();
        let total: Scalar = wide.iter().map(|(_, k)| *k).sum();
        let sums = [vec![(&table, Scalar::ONE)], wide, vec![(&table, total)]];
        let points = evaluate(&sums);
        assert_eq!(points[0], table.base());
        assert_eq!(points[1], table.mul(&total));
        assert_eq!(points[2], points[1]);
    }

    #[test]
    fn batch_normalize_copies_what_is_already_affine() {
        let mut rng = StdRng::seed_from_u64(33);
        let p = Point::mul_generator(&Scalar::random(&mut rng));
        let off_the_wire = Point::from_bytes(&p.to_bytes()).expect("own encoding");
        let mixed = [off_the_wire, Point::IDENTITY, p, rescaled(&p, 9)];
        for (point, affine) in mixed.iter().zip(Point::batch_normalize(&mixed)) {
            assert_eq!(affine.coords(), point.to_affine());
            assert_eq!(affine.to_bytes(), point.to_bytes());
            assert_eq!(affine.to_point(), *point);
        }
        // Nothing to invert: coordinates are copied bit for bit.
        let copied = Point::batch_normalize(&[off_the_wire, Point::IDENTITY]);
        assert_eq!((copied[0].x, copied[0].y), (off_the_wire.x, off_the_wire.y));
        assert!(copied[1].is_identity());
    }

    #[test]
    fn affine_addition_exceptional_cases() {
        let mut rng = StdRng::seed_from_u64(34);
        let p = Point::mul_generator(&Scalar::random(&mut rng));
        let q = Point::mul_generator(&Scalar::random(&mut rng));
        let sum = |a: &Point, b: &Point| {
            let (a, b) = (affine(a), affine(b));
            let denominator = a.slope_denominator(&b);
            let inverse = denominator.invert().unwrap_or(Fp::ZERO);
            a.add_with_inverse(&b, inverse).to_point()
        };
        let id = Point::IDENTITY;
        assert_eq!(sum(&p, &q), p.add(&q));
        assert_eq!(sum(&p, &p), p.double());
        assert_eq!(sum(&p, &p.negate()), id);
        assert_eq!(sum(&id, &q), q);
        assert_eq!(sum(&p, &id), p);
        assert_eq!(sum(&id, &id), id);
        assert!(sum(&p, &q).is_on_curve());
    }

    #[test]
    fn uncompressed_encoding_roundtrips_and_refuses_off_curve_points() {
        let mut rng = StdRng::seed_from_u64(35);
        let points = [
            Point::mul_generator(&Scalar::random(&mut rng)),
            Point::IDENTITY,
            rescaled(&Point::generator(), 5),
        ];
        for (point, affine) in points.iter().zip(Point::batch_to_affine(&points)) {
            let bytes = Point::uncompressed(affine);
            let parsed = Point::from_uncompressed(&bytes).expect("own encoding");
            assert_eq!(parsed, *point);
            assert_eq!(parsed.to_bytes(), point.to_bytes());
        }
        let mut off_curve = Point::uncompressed(points[0].to_affine());
        off_curve[64] ^= 1;
        assert!(Point::from_uncompressed(&off_curve).is_none());
        let mut bad_tag = Point::uncompressed(points[0].to_affine());
        bad_tag[0] = 0x02;
        assert!(Point::from_uncompressed(&bad_tag).is_none());
        let mut bad_identity = [0u8; 65];
        bad_identity[64] = 1;
        assert!(Point::from_uncompressed(&bad_identity).is_none());
        // A coordinate at or above the field modulus is not canonical.
        let mut wide = Point::uncompressed(points[0].to_affine());
        wide[1..33].copy_from_slice(&[0xFF; 32]);
        assert!(Point::from_uncompressed(&wide).is_none());
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

    /// A random slot layout over `pool` and fresh points: empty, single,
    /// odd and long slots; identities, repeats (`P + P`), negations
    /// (`P + (−P)`, and equal `x`) and fresh points mixed in each.
    fn slot_layout(rng: &mut StdRng, pool: &[Affine]) -> (Vec<Affine>, Vec<u32>, Vec<u32>) {
        let slots = 1 + rng.next_u32() as usize % 24;
        let lens: Vec<u32> = (0..slots)
            .map(|_| match rng.next_u32() % 8 {
                0 => 0,
                1 => 1,
                2 => 2,
                3 => 3,
                4 => 40 + rng.next_u32() % 90,
                _ => rng.next_u32() % 17,
            })
            .collect();
        let mut starts = Vec::with_capacity(slots);
        let mut total = 0;
        for len in &lens {
            starts.push(total);
            total += len;
        }
        let points = (0..total)
            .map(|_| {
                let pick = rng.next_u32();
                let p = pool[(pick >> 8) as usize % pool.len()];
                match pick % 8 {
                    0 => Affine::IDENTITY,
                    1 => p.negate(),
                    2 | 3 => p,
                    _ => affine(&Point::mul_generator(&Scalar::from_u64(u64::from(pick)))),
                }
            })
            .collect();
        (points, starts, lens)
    }

    /// The dispatched reducer leaves every slot as the portable one does,
    /// point for point, after one round and after all of them, and the
    /// sums are the slots' sums. Without AVX-512 IFMA the two are the same
    /// code, and the test says so.
    #[test]
    fn reducer_backends_agree_on_random_slot_layouts() {
        println!("kernels: {}", cpu::backend());
        if !cpu::runs("avx512ifma") {
            println!("no AVX-512 IFMA kernel: the dispatched half of this test did not run");
        }
        let mut rng = StdRng::seed_from_u64(47);
        let pool: Vec<Affine> = (0..3)
            .map(|_| affine(&Point::mul_generator(&Scalar::random(&mut rng))))
            .collect();
        for layout in 0..300 {
            let (points, starts, lens) = slot_layout(&mut rng, &pool);
            for rounds in [1, usize::MAX] {
                let run = |mut reducer: SlotReducer| {
                    let (mut points, mut lens) = (points.clone(), lens.clone());
                    let ran = std::cell::Cell::new(0);
                    reducer.halve(&mut points, &starts, &mut lens, |_| {
                        ran.set(ran.get() + 1);
                        ran.get() <= rounds
                    });
                    (points, lens)
                };
                let portable = run(SlotReducer::new(add_pairs));
                assert_eq!(
                    run(SlotReducer::new(cpu::kernels().halve_round)),
                    portable,
                    "layout {layout}, {rounds} round(s)"
                );
                if rounds == usize::MAX {
                    let (reduced, left) = portable;
                    for ((&start, &len), &was) in starts.iter().zip(&left).zip(&lens) {
                        let sum: Point = points[start as usize..][..was as usize]
                            .iter()
                            .map(|p| p.to_point())
                            .sum();
                        assert!(len <= 1, "layout {layout}: a slot still holds a pair");
                        let got = reduced[start as usize..][..len as usize]
                            .first()
                            .map_or(Point::IDENTITY, |p| p.to_point());
                        assert_eq!(got, sum, "layout {layout}");
                    }
                }
            }
        }
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
        fn prop_msm_matches_naive_on_adversarial_terms(seed in any::<u64>(), n in 0usize..40) {
            let (scalars, points) = adversarial_terms(seed, n);
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
