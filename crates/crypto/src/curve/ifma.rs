//! The batch-affine reducer's AVX-512 IFMA backend: a round's pair
//! additions eight at a time, and its batch inversion as eight interleaved
//! chains, in radix 2⁵² on `vpmadd52luq`/`vpmadd52huq`.
//!
//! An [`Fp8`] holds eight field elements as five vectors of 52-bit limbs
//! (limb `k` of every lane in one register). Its values are kept *loose*:
//! limbs 0–3 below 2⁵², limb 4 below 2⁴⁹, so the value is below `2p` and
//! every limb is a valid IFMA operand. A product folds its columns above
//! 2²⁶⁰ back by `2²⁶⁰ ≡ 16·C` and then what is above 2²⁵⁶ by `2²⁵⁶ ≡ C`,
//! with `p = 2²⁵⁶ − C`; values leave canonical (`< p`), so the reducer's
//! points and inverses are the bytes the portable path computes.
//!
//! Every lane is computed by the generic chord formula; a lane whose pair
//! has an identity operand, a zero slope denominator (`P + (−P)`) or equal
//! `x` (`P + P`) is then redone by [`Affine::add_with_inverse`]. Scratch
//! is the portable path's: the round's denominators and one `Vec<Fp>` of
//! the same length, which here holds each lane chain's suffix products.
//!
//! The arithmetic is safe Rust on `std::arch` under `#[target_feature]`;
//! the `unsafe` is the entry call, which a [`detected`] check before it
//! makes sound, and the unaligned loads and stores of `Fp` and `Affine`
//! memory.

use super::Affine;
use crate::field::Fp;
use std::arch::x86_64::*;

/// Whether this CPU has every feature the backend is built with.
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

const MASK52: u64 = (1 << 52) - 1;
const MASK48: u64 = (1 << 48) - 1;
/// `C = 2²⁵⁶ − p`.
const C: u64 = 0x1_0000_03D1;
/// `4p` in radix 2⁵², every limb at least the matching limb of a loose
/// value: what a subtraction adds so that no limb goes negative.
const P4: [u64; 5] = [
    (1 << 54) - 4 * C,
    (1 << 54) - 4,
    (1 << 54) - 4,
    (1 << 54) - 4,
    (1 << 50) - 4,
];

/// Eight field elements, one lane each, as five vectors of 52-bit limbs.
#[derive(Clone, Copy)]
struct Fp8([__m512i; 5]);

#[target_feature(enable = "avx512f")]
fn splat(v: u64) -> __m512i {
    _mm512_set1_epi64(v as i64)
}

impl Fp8 {
    #[target_feature(enable = "avx512f")]
    fn one() -> Fp8 {
        let zero = _mm512_setzero_si512();
        Fp8([splat(1), zero, zero, zero, zero])
    }

    /// From four vectors of canonical 64-bit limbs.
    #[target_feature(enable = "avx512f")]
    fn from_limbs64(l: [__m512i; 4]) -> Fp8 {
        let m = splat(MASK52);
        let or = |a, b| _mm512_or_si512(a, b);
        Fp8([
            _mm512_and_si512(l[0], m),
            _mm512_and_si512(
                or(_mm512_srli_epi64::<52>(l[0]), _mm512_slli_epi64::<12>(l[1])),
                m,
            ),
            _mm512_and_si512(
                or(_mm512_srli_epi64::<40>(l[1]), _mm512_slli_epi64::<24>(l[2])),
                m,
            ),
            _mm512_and_si512(
                or(_mm512_srli_epi64::<28>(l[2]), _mm512_slli_epi64::<36>(l[3])),
                m,
            ),
            _mm512_srli_epi64::<16>(l[3]),
        ])
    }

    /// The canonical 64-bit limbs: `v − p` when `v + C` reaches 2²⁵⁶
    /// (a loose value is below `2p`), else `v`.
    #[target_feature(enable = "avx512f")]
    fn to_limbs64(self) -> [__m512i; 4] {
        let v = self.0;
        let m = splat(MASK52);
        let mut t = v;
        t[0] = _mm512_add_epi64(t[0], splat(C));
        for k in 0..4 {
            t[k + 1] = _mm512_add_epi64(t[k + 1], _mm512_srli_epi64::<52>(t[k]));
            t[k] = _mm512_and_si512(t[k], m);
        }
        let reduced = _mm512_test_epi64_mask(t[4], splat(!MASK48));
        t[4] = _mm512_and_si512(t[4], splat(MASK48));
        let r: [__m512i; 5] = std::array::from_fn(|k| _mm512_mask_blend_epi64(reduced, v[k], t[k]));
        let or = |a, b| _mm512_or_si512(a, b);
        [
            or(r[0], _mm512_slli_epi64::<52>(r[1])),
            or(_mm512_srli_epi64::<12>(r[1]), _mm512_slli_epi64::<40>(r[2])),
            or(_mm512_srli_epi64::<24>(r[2]), _mm512_slli_epi64::<28>(r[3])),
            or(_mm512_srli_epi64::<36>(r[3]), _mm512_slli_epi64::<16>(r[4])),
        ]
    }

    /// Brings limbs below 2⁶² back to a loose value: what is above 2²⁵⁶
    /// in limb 4 folds into limb 0 by `2²⁵⁶ ≡ C`, then one carry pass.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn normalize(mut r: [__m512i; 5]) -> Fp8 {
        let m = splat(MASK52);
        let top = _mm512_srli_epi64::<48>(r[4]);
        r[4] = _mm512_and_si512(r[4], splat(MASK48));
        r[0] = _mm512_madd52lo_epu64(r[0], top, splat(C));
        for k in 0..4 {
            r[k + 1] = _mm512_add_epi64(r[k + 1], _mm512_srli_epi64::<52>(r[k]));
            r[k] = _mm512_and_si512(r[k], m);
        }
        Fp8(r)
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sub(self, rhs: Fp8) -> Fp8 {
        Fp8::normalize(std::array::from_fn(|k| {
            _mm512_sub_epi64(_mm512_add_epi64(self.0[k], splat(P4[k])), rhs.0[k])
        }))
    }

    /// Reduces the ten product columns `c` (each below 2⁵⁶): columns 5–9
    /// fold onto 0–4 by `2²⁶⁰ ≡ 16·C`, each split at bit 52 so that both
    /// halves are IFMA operands; what that carries past column 4 folds
    /// once more.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduce(mut c: [__m512i; 10]) -> Fp8 {
        let f = splat(C << 4);
        let m = splat(MASK52);
        let mut over = _mm512_setzero_si512();
        for k in 0..5 {
            let high = c[k + 5];
            let (lo, hi) = (_mm512_and_si512(high, m), _mm512_srli_epi64::<52>(high));
            c[k] = _mm512_madd52lo_epu64(c[k], lo, f);
            let next = if k < 4 { &mut c[k + 1] } else { &mut over };
            *next = _mm512_madd52hi_epu64(*next, lo, f);
            *next = _mm512_madd52lo_epu64(*next, hi, f);
        }
        c[0] = _mm512_madd52lo_epu64(c[0], over, f);
        c[1] = _mm512_madd52hi_epu64(c[1], over, f);
        Fp8::normalize([c[0], c[1], c[2], c[3], c[4]])
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul(self, rhs: Fp8) -> Fp8 {
        let (a, b) = (self.0, rhs.0);
        let mut c = [_mm512_setzero_si512(); 10];
        for i in 0..5 {
            for j in 0..5 {
                c[i + j] = _mm512_madd52lo_epu64(c[i + j], a[i], b[j]);
                c[i + j + 1] = _mm512_madd52hi_epu64(c[i + j + 1], a[i], b[j]);
            }
        }
        Fp8::reduce(c)
    }

    /// The ten cross products once, the columns doubled by a shift, then
    /// the five squares: 30 IFMA products against a multiplication's 50.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn square(self) -> Fp8 {
        let a = self.0;
        let mut c = [_mm512_setzero_si512(); 10];
        for i in 0..5 {
            for j in i + 1..5 {
                c[i + j] = _mm512_madd52lo_epu64(c[i + j], a[i], a[j]);
                c[i + j + 1] = _mm512_madd52hi_epu64(c[i + j + 1], a[i], a[j]);
            }
        }
        for col in &mut c {
            *col = _mm512_slli_epi64::<1>(*col);
        }
        for i in 0..5 {
            c[2 * i] = _mm512_madd52lo_epu64(c[2 * i], a[i], a[i]);
            c[2 * i + 1] = _mm512_madd52hi_epu64(c[2 * i + 1], a[i], a[i]);
        }
        Fp8::reduce(c)
    }

    /// The lanes that are zero, of a canonical value.
    #[target_feature(enable = "avx512f")]
    fn zero_lanes(self) -> __mmask8 {
        let any = self
            .0
            .into_iter()
            .fold(_mm512_setzero_si512(), |a, l| _mm512_or_si512(a, l));
        _mm512_testn_epi64_mask(any, any)
    }

    /// The lanes where `self` and `rhs` are equal, both canonical.
    #[target_feature(enable = "avx512f")]
    fn eq_lanes(self, rhs: Fp8) -> __mmask8 {
        (0..5).fold(0xff, |mask, k| {
            mask & _mm512_cmpeq_epi64_mask(self.0[k], rhs.0[k])
        })
    }

    /// `rhs` in the lanes of `mask`, `self` elsewhere.
    #[target_feature(enable = "avx512f")]
    fn blend(self, mask: __mmask8, rhs: Fp8) -> Fp8 {
        Fp8(std::array::from_fn(|k| {
            _mm512_mask_blend_epi64(mask, self.0[k], rhs.0[k])
        }))
    }
}

/// Lane `l` of the result is lane `idx[l]` of `a ‖ b` (0–7 from `a`,
/// 8–15 from `b`).
#[target_feature(enable = "avx512f")]
fn pick(a: __m512i, b: __m512i, idx: [i64; 8]) -> __m512i {
    let [i0, i1, i2, i3, i4, i5, i6, i7] = idx;
    _mm512_permutex2var_epi64(a, _mm512_set_epi64(i7, i6, i5, i4, i3, i2, i1, i0), b)
}

/// Lanes 0–3 of `a` then of `b`; lanes 4–7 of each.
const LOW_HALVES: [i64; 8] = [0, 1, 2, 3, 8, 9, 10, 11];
const HIGH_HALVES: [i64; 8] = [4, 5, 6, 7, 12, 13, 14, 15];
/// Of four `Fp`s held two a vector in `a` and `b`: limb 0 of each, then
/// limb 1; limb 2, then limb 3.
const LIMBS_01: [i64; 8] = [0, 4, 8, 12, 1, 5, 9, 13];
const LIMBS_23: [i64; 8] = [2, 6, 10, 14, 3, 7, 11, 15];

/// Lane-major rows to limb-major columns: `out[j][i] = rows[i][j]`. Its
/// own inverse.
#[target_feature(enable = "avx512f")]
fn transpose(rows: [__m512i; 8]) -> [__m512i; 8] {
    // Pairs of rows interleaved: columns 0, 2, 4, 6 of rows 2m and 2m + 1
    // in `a[2m]`, the odd columns in `a[2m + 1]`.
    let a: [__m512i; 8] = std::array::from_fn(|k| {
        let (r0, r1) = (rows[k & !1], rows[k | 1]);
        if k % 2 == 0 {
            _mm512_unpacklo_epi64(r0, r1)
        } else {
            _mm512_unpackhi_epi64(r0, r1)
        }
    });
    // Quads of rows: `b[k]` (`b[k + 4]`) holds columns `c` and `c + 4`
    // of rows 0–3 (4–7), with `c` = 0, 1, 2, 3 for k = 0, 1, 2, 3.
    const LOW_PAIRS: [i64; 8] = [0, 1, 8, 9, 4, 5, 12, 13];
    const HIGH_PAIRS: [i64; 8] = [2, 3, 10, 11, 6, 7, 14, 15];
    let b: [__m512i; 8] = std::array::from_fn(|k| {
        let (quad, c) = (k / 4 * 4, k % 4);
        let pairs = if c < 2 { LOW_PAIRS } else { HIGH_PAIRS };
        pick(a[quad + c % 2], a[quad + c % 2 + 2], pairs)
    });
    std::array::from_fn(|j| {
        let halves = if j < 4 { LOW_HALVES } else { HIGH_HALVES };
        pick(b[j % 4], b[j % 4 + 4], halves)
    })
}

/// Eight `Fp`s held two a vector to their limbs, four vectors of eight
/// lanes; `join` is its inverse.
#[target_feature(enable = "avx512f")]
fn split(z: [__m512i; 4]) -> [__m512i; 4] {
    let (a, b) = (pick(z[0], z[1], LIMBS_01), pick(z[0], z[1], LIMBS_23));
    let (c, d) = (pick(z[2], z[3], LIMBS_01), pick(z[2], z[3], LIMBS_23));
    [
        pick(a, c, LOW_HALVES),
        pick(a, c, HIGH_HALVES),
        pick(b, d, LOW_HALVES),
        pick(b, d, HIGH_HALVES),
    ]
}

#[target_feature(enable = "avx512f")]
fn join(l: [__m512i; 4]) -> [__m512i; 4] {
    let (a, c) = (pick(l[0], l[1], LOW_HALVES), pick(l[0], l[1], HIGH_HALVES));
    let (b, d) = (pick(l[2], l[3], LOW_HALVES), pick(l[2], l[3], HIGH_HALVES));
    [
        pick(a, b, LIMBS_01),
        pick(a, b, LIMBS_23),
        pick(c, d, LIMBS_01),
        pick(c, d, LIMBS_23),
    ]
}

/// The first eight elements of `elems`, padded with one past its end.
#[target_feature(enable = "avx512f")]
fn load_fp8(elems: &[Fp]) -> Fp8 {
    let mut padded = [Fp::ONE; 8];
    let elems = match elems.get(..8) {
        Some(eight) => eight,
        None => {
            padded[..elems.len()].copy_from_slice(elems);
            &padded[..]
        }
    };
    // SAFETY: `elems` holds eight `Fp`s, and `Fp` is `repr(transparent)`
    // over `[u64; 4]`: 256 bytes, read as four unaligned 64-byte vectors.
    let z = std::array::from_fn(|i| unsafe {
        _mm512_loadu_si512(elems.as_ptr().cast::<__m512i>().add(i))
    });
    Fp8::from_limbs64(split(z))
}

/// Writes the first `out.len()` (at most eight) lanes, canonical.
#[target_feature(enable = "avx512f")]
fn store_fp8(v: Fp8, out: &mut [Fp]) {
    let z = join(v.to_limbs64());
    let mut padded = [Fp::ZERO; 8];
    let n = out.len().min(8);
    let eight = if n == 8 {
        &mut out[..8]
    } else {
        &mut padded[..]
    };
    for (i, z) in z.into_iter().enumerate() {
        // SAFETY: `eight` is eight `Fp`s, each `repr(transparent)` over
        // `[u64; 4]`, written as four unaligned 64-byte vectors of
        // canonical limbs.
        unsafe { _mm512_storeu_si512(eight.as_mut_ptr().cast::<__m512i>().add(i), z) };
    }
    if n < 8 {
        out.copy_from_slice(&padded[..n]);
    }
}

/// One `Affine` as a vector: `x` limbs, then `y` limbs.
#[target_feature(enable = "avx512f")]
fn load_point(p: &Affine) -> __m512i {
    // SAFETY: `Affine` is `repr(C)` `{ x: Fp, y: Fp }` and `Fp` is
    // `repr(transparent)` over `[u64; 4]`: 64 bytes, read unaligned.
    unsafe { _mm512_loadu_si512((p as *const Affine).cast()) }
}

#[target_feature(enable = "avx512f")]
fn store_point(p: &mut Affine, v: __m512i) {
    // SAFETY: as in `load_point`; every bit pattern is a `[u64; 8]`, and
    // the caller stores canonical limbs only.
    unsafe { _mm512_storeu_si512((p as *mut Affine).cast(), v) }
}

/// The pairs of a round, as `(first point, where the sum goes)`: pair
/// `j` of slot `i` is `points[starts[i] + 2j..][..2]`, its sum goes to
/// `starts[i] + j`. Walked in slot order from either end.
struct Pairs<'a> {
    starts: &'a [u32],
    lens: &'a [u32],
    slot: usize,
    /// The next pair of `slot` (walking down: one past it).
    pair: usize,
}

impl<'a> Pairs<'a> {
    fn first(starts: &'a [u32], lens: &'a [u32]) -> Pairs<'a> {
        Pairs {
            starts,
            lens,
            slot: 0,
            pair: 0,
        }
    }

    fn last(starts: &'a [u32], lens: &'a [u32]) -> Pairs<'a> {
        Pairs {
            starts,
            lens,
            slot: starts.len(),
            pair: 0,
        }
    }

    fn at(&self, slot: usize, pair: usize) -> (usize, usize) {
        let start = self.starts[slot] as usize;
        (start + 2 * pair, start + pair)
    }

    fn next(&mut self) -> (usize, usize) {
        while self.pair >= self.lens[self.slot] as usize / 2 {
            self.slot += 1;
            self.pair = 0;
        }
        self.pair += 1;
        self.at(self.slot, self.pair - 1)
    }

    fn next_back(&mut self) -> (usize, usize) {
        while self.pair == 0 {
            self.slot -= 1;
            self.pair = self.lens[self.slot] as usize / 2;
        }
        self.pair -= 1;
        self.at(self.slot, self.pair)
    }
}

/// The eight pairs `at` (the first `live` of them; the rest repeat the
/// first) as `(x₁, y₁, x₂, y₂)`.
#[target_feature(enable = "avx512f")]
fn load_pairs(points: &[Affine], at: &[(usize, usize); 8], live: usize) -> [Fp8; 4] {
    let src = |l: usize| at[if l < live { l } else { 0 }].0;
    let p = transpose(std::array::from_fn(|l| load_point(&points[src(l)])));
    let q = transpose(std::array::from_fn(|l| load_point(&points[src(l) + 1])));
    let coordinate =
        |t: &[__m512i; 8], k: usize| Fp8::from_limbs64([t[k], t[k + 1], t[k + 2], t[k + 3]]);
    [
        coordinate(&p, 0),
        coordinate(&p, 4),
        coordinate(&q, 0),
        coordinate(&q, 4),
    ]
}

/// The inverses of eight nonzero elements by one [`Fp::invert`] of their
/// product.
fn invert_lanes(lanes: [Fp; 8]) -> [Fp; 8] {
    let mut before = [Fp::ONE; 8];
    let mut acc = Fp::ONE;
    for (b, lane) in before.iter_mut().zip(lanes) {
        *b = acc;
        acc *= lane;
    }
    let mut inv = acc.invert().expect("a product of nonzero elements");
    let mut out = [Fp::ZERO; 8];
    for i in (0..8).rev() {
        out[i] = inv * before[i];
        inv *= lanes[i];
    }
    out
}

/// One reduction round: for every slot (`points[starts[i]..][..lens[i]]`)
/// position `j` becomes the sum of the slot's points `2j` and `2j + 1`,
/// as [`super::SlotReducer::halve`] defines it; the odd point is the
/// caller's to move. `denominators` and `suffix` are scratch.
pub(super) fn halve_round(
    points: &mut [Affine],
    starts: &[u32],
    lens: &[u32],
    denominators: &mut Vec<Fp>,
    suffix: &mut Vec<Fp>,
) {
    // A cached feature read a round: this safe function must not reach
    // the IFMA code on a CPU without it, whoever calls it.
    assert!(detected(), "the IFMA backend on a CPU without AVX-512 IFMA");
    // SAFETY: `detected()` has just found `avx512f` and `avx512ifma` on
    // this CPU, so every instruction `halve_round_ifma` is compiled with
    // exists here.
    unsafe { halve_round_ifma(points, starts, lens, denominators, suffix) }
}

/// [`halve_round`] proper. Lane `l` of chunk `c` is pair `8c + l`, and
/// each lane is one batch-inversion chain. A first pass, from the last
/// chunk down, takes each chunk's slope denominators (`x₂ − x₁`; a lane
/// with an identity operand or equal `x` by [`Affine::slope_denominator`])
/// and keeps every lane's product of the denominators after it; one
/// inversion covers the eight lane products; a second pass, from the
/// first chunk up, peels one inverse a chunk off and adds the pairs with
/// it, writing each sum where the in-place halving puts it (never over a
/// point a later pair still reads). A zero denominator counts as one in
/// the chains, and its lane is added by [`Affine::add_with_inverse`], as
/// is a lane with equal `x`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn halve_round_ifma(
    points: &mut [Affine],
    starts: &[u32],
    lens: &[u32],
    denominators: &mut Vec<Fp>,
    suffix: &mut Vec<Fp>,
) {
    let n: usize = lens.iter().map(|&len| len as usize / 2).sum();
    denominators.clear();
    denominators.resize(n, Fp::ZERO);
    suffix.clear();
    suffix.resize(n, Fp::ZERO);
    let one = Fp8::one();
    let mut acc = one;
    let mut pairs = Pairs::last(starts, lens);
    for (dens, after) in denominators.chunks_mut(8).zip(suffix.chunks_mut(8)).rev() {
        let live = dens.len();
        let mut at = [(0, 0); 8];
        for lane in at[..live].iter_mut().rev() {
            *lane = pairs.next_back();
        }
        let [x1, _, x2, _] = load_pairs(points, &at, live);
        let mut d = x2.sub(x1);
        store_fp8(d, dens);
        let odd = (x1.eq_lanes(x2) | x1.zero_lanes() | x2.zero_lanes()) & (0xff >> (8 - live));
        if odd != 0 {
            for (l, &(src, _)) in at[..live].iter().enumerate() {
                if odd & (1 << l) != 0 {
                    dens[l] = points[src].slope_denominator(&points[src + 1]);
                }
            }
            let exact = load_fp8(dens);
            d = exact.blend(exact.zero_lanes(), one);
        }
        store_fp8(acc, after);
        acc = acc.mul(d);
    }
    let mut lanes = [Fp::ZERO; 8];
    store_fp8(acc, &mut lanes);
    let mut running = load_fp8(&invert_lanes(lanes));

    let mut pairs = Pairs::first(starts, lens);
    for (dens, after) in denominators.chunks(8).zip(suffix.chunks(8)) {
        let live = dens.len();
        let d = load_fp8(dens);
        let zero = d.zero_lanes();
        let inverse = running.mul(load_fp8(after));
        running = running.mul(d.blend(zero, one));
        let mut at = [(0, 0); 8];
        for lane in &mut at[..live] {
            *lane = pairs.next();
        }
        let [x1, y1, x2, y2] = load_pairs(points, &at, live);
        let slope = y2.sub(y1).mul(inverse);
        let x3 = slope.square().sub(x1).sub(x2);
        let y3 = slope.mul(x1.sub(x3)).sub(y1);
        let [a0, a1, a2, a3] = x3.to_limbs64();
        let [b0, b1, b2, b3] = y3.to_limbs64();
        let sums = transpose([a0, a1, a2, a3, b0, b1, b2, b3]);
        let odd = (zero | x1.eq_lanes(x2)) & (0xff >> (8 - live));
        let mut exact = [Affine::IDENTITY; 8];
        if odd != 0 {
            let mut inverses = [Fp::ZERO; 8];
            store_fp8(inverse, &mut inverses);
            for (l, &(src, _)) in at[..live].iter().enumerate() {
                if odd & (1 << l) != 0 {
                    let inverse = if zero & (1 << l) != 0 {
                        Fp::ZERO
                    } else {
                        inverses[l]
                    };
                    exact[l] = points[src].add_with_inverse(&points[src + 1], inverse);
                }
            }
        }
        for (l, &(_, dst)) in at[..live].iter().enumerate() {
            if odd & (1 << l) != 0 {
                points[dst] = exact[l];
            } else {
                store_point(&mut points[dst], sums[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Packed and unpacked again.
        RoundTrip,
        Mul,
        Square,
        Sub,
        /// `(a·b − b)² · a − a`: loose values fed on without unpacking.
        Chain,
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn apply(op: Op, a: &[Fp; 8], b: &[Fp; 8]) -> [Fp; 8] {
        let (x, y) = (load_fp8(a), load_fp8(b));
        let r = match op {
            Op::RoundTrip => x,
            Op::Mul => x.mul(y),
            Op::Square => x.square(),
            Op::Sub => x.sub(y),
            Op::Chain => x.mul(y).sub(y).square().mul(x).sub(x),
        };
        let mut out = [Fp::ZERO; 8];
        store_fp8(r, &mut out);
        out
    }

    fn oracle(op: Op, a: Fp, b: Fp) -> Fp {
        match op {
            Op::RoundTrip => a,
            Op::Mul => a * b,
            Op::Square => a.square(),
            Op::Sub => a - b,
            Op::Chain => ((a * b - b).square() * a) - a,
        }
    }

    /// `op` on eight lanes against [`Fp`] lane by lane; false (checking
    /// nothing) on a CPU without the backend's features.
    fn check(op: Op, a: [Fp; 8], b: [Fp; 8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` found `avx512f` and `avx512ifma`.
        let got = unsafe { apply(op, &a, &b) };
        for l in 0..8 {
            assert_eq!(
                got[l],
                oracle(op, a[l], b[l]),
                "{op:?} lane {l}: {:?}, {:?}",
                a[l],
                b[l]
            );
        }
        true
    }

    /// Field elements at and near the edges of the representation: 0, 1,
    /// `p − 1`, `p − 2`, `C`, limb boundaries of both radixes.
    fn edges() -> Vec<Fp> {
        let mut out = vec![
            Fp::ZERO,
            Fp::ONE,
            -Fp::ONE,
            -Fp::from_u64(2),
            Fp::from_u64(C),
        ];
        for bit in [51, 52, 63, 64, 103, 104, 155, 156, 207, 208, 255] {
            let mut bytes = [0u8; 32];
            bytes[31 - bit / 8] = 1 << (bit % 8);
            let power = Fp::from_bytes(&bytes).expect("below p");
            out.extend([power, power - Fp::ONE, -power]);
        }
        out
    }

    /// Eight lanes, a quarter of them edge operands.
    fn arb_lanes() -> impl Strategy<Value = [Fp; 8]> {
        let edges = edges();
        any::<[[u64; 4]; 8]>().prop_map(move |lanes| {
            lanes.map(|limbs| match limbs[0] % 4 {
                0 => edges[(limbs[1] % edges.len() as u64) as usize],
                _ => Fp::from_u256_reduce(crate::u256::U256::from_limbs(limbs)),
            })
        })
    }

    #[test]
    fn every_pair_of_edge_operands_matches_fp() {
        println!("AVX-512 IFMA detected: {}", detected());
        let edges = edges();
        for a in &edges {
            for chunk in edges.chunks(8) {
                let mut b = [Fp::ONE; 8];
                b[..chunk.len()].copy_from_slice(chunk);
                let a = [*a; 8];
                for op in [Op::RoundTrip, Op::Mul, Op::Square, Op::Sub, Op::Chain] {
                    if !check(op, a, b) {
                        println!("no AVX-512 IFMA on this CPU: the 8-lane field was not checked");
                        return;
                    }
                }
            }
        }
    }

    /// A 10,000-long chain of products, each lane its own, stays equal to
    /// `Fp`'s without leaving the vector form.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn a_long_chain_of_loose_products_matches_fp() {
        if !detected() {
            println!("no AVX-512 IFMA on this CPU: the 8-lane chain was not checked");
            return;
        }
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn chain(a: &[Fp; 8], b: &[Fp; 8], n: usize) -> [Fp; 8] {
            let (mut x, y) = (load_fp8(a), load_fp8(b));
            for _ in 0..n {
                x = x.mul(y).square();
            }
            let mut out = [Fp::ZERO; 8];
            store_fp8(x, &mut out);
            out
        }
        let a: [Fp; 8] =
            std::array::from_fn(|l| Fp::from_u64(3 + l as u64) - Fp::from_u64(1 << 40));
        let b: [Fp; 8] = std::array::from_fn(|l| -Fp::from_u64(7 * l as u64 + 1));
        // SAFETY: `detected()` found `avx512f` and `avx512ifma`.
        let got = unsafe { chain(&a, &b, 10_000) };
        for l in 0..8 {
            let want = (0..10_000).fold(a[l], |x, _| (x * b[l]).square());
            assert_eq!(got[l], want, "lane {l}");
        }
    }

    proptest! {
        #[test]
        fn prop_eight_lanes_match_fp(a in arb_lanes(), b in arb_lanes()) {
            for op in [Op::RoundTrip, Op::Mul, Op::Square, Op::Sub, Op::Chain] {
                check(op, a, b);
            }
        }
    }
}
