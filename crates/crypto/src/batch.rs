//! One batch-verification engine: labelled linear relations over curve
//! points, checked together as one random linear combination.
//!
//! Signatures ([`crate::schnorr::push_signature`]), ElGamal openings
//! ([`crate::elgamal::push_opening`]) and ballot-row proofs
//! ([`crate::zkp::RowProof::push`]) enter one [`LinearBatch`] as labelled
//! equations `U + Σ kᵢ·Bᵢ = 0`, each with a point `U` of its own (a first
//! move, an opening's `a` or `b`, a signature's `R`). [`LinearBatch::check`]
//! accepts iff `Σₑ ρₑ·(Uₑ + Σ kᵢ·Bᵢ) = 0` for 128-bit weights `ρₑ` drawn
//! from a transcript of the whole batch: one multi-scalar multiplication,
//! each base entered once, each `Uₑ` under its bare weight. By
//! Bellare–Garay–Rabin's small-exponent test a false equation survives
//! with probability at most 2⁻¹²⁸, and grinding the Fiat–Shamir weights
//! costs ~2¹²⁸ hashes, the curve's own bound. On failure, the failing
//! labels are named (DESIGN.md §4.2).

use crate::curve::{Affine, Point};
use crate::field::Scalar;
use crate::sha256::{Sha256, WeightStream};
use std::collections::BTreeMap;
use std::ops::Range;

/// A term's coefficient: a scalar entered once ([`LinearBatch::scalar`]),
/// hashed once however many terms use it, negated for free (the index
/// shifted left by one, the low bit the sign).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Coef(usize);

impl std::ops::Neg for Coef {
    type Output = Coef;

    fn neg(self) -> Coef {
        Coef(self.0 ^ 1)
    }
}

/// A term: a base handle and its coefficient.
pub(crate) type Term = (usize, Coef);

/// One equation: `points[unit] + Σ ±scalars[coef]·points[base] = 0`, its
/// terms the batch's from the previous equation's `end` to its own.
#[derive(Clone, Copy, Debug)]
struct Equation {
    label: usize,
    unit: usize,
    end: usize,
}

/// Labelled equations awaiting one batch check (module docs).
#[derive(Clone, Debug)]
pub struct LinearBatch {
    points: Vec<Point>,
    shared: BTreeMap<[u8; 33], usize>,
    scalars: Vec<Scalar>,
    equations: Vec<Equation>,
    terms: Vec<Term>,
    rejected: Vec<usize>,
}

impl LinearBatch {
    /// The base `G`, shared by every batch.
    pub(crate) const G: usize = 0;

    /// An empty batch holding only the base `G`, with room for `bases`
    /// bases — and the equations, scalars and terms they carry in the
    /// verifiers' shapes — before anything grows.
    pub fn new(bases: usize) -> LinearBatch {
        let mut batch = LinearBatch {
            points: Vec::with_capacity(bases),
            shared: BTreeMap::new(),
            scalars: Vec::with_capacity(bases),
            equations: Vec::with_capacity(bases),
            terms: Vec::with_capacity(2 * bases),
            rejected: Vec::new(),
        };
        batch.shared(&Point::generator());
        batch
    }

    /// Adds bases of the caller's own and returns their handles, in order.
    pub(crate) fn bases(&mut self, points: impl IntoIterator<Item = Point>) -> Range<usize> {
        let start = self.points.len();
        self.points.extend(points);
        start..self.points.len()
    }

    /// The handle of a base many equations share: the first call with a
    /// point adds it, later calls with a point of the same encoding return
    /// the same handle. A normalised point (`z = 1`) costs no inversion.
    pub fn shared(&mut self, point: &Point) -> usize {
        let encoding = Point::batch_normalize(std::slice::from_ref(point))[0].to_bytes();
        let next = self.points.len();
        let base = *self.shared.entry(encoding).or_insert(next);
        if base == next {
            self.points.push(*point);
        }
        base
    }

    /// Enters a scalar, for any number of terms to use as their
    /// coefficient (or, by [`Coef`]'s negation, its negative).
    pub(crate) fn scalar(&mut self, value: Scalar) -> Coef {
        self.scalars.push(value);
        Coef((self.scalars.len() - 1) << 1)
    }

    /// Pushes the equation `unit + Σ kᵢ·Bᵢ = 0` under `label`, the `sum`
    /// given as `(base handle, kᵢ)` terms; `unit` is added as a base of its
    /// own.
    pub(crate) fn push(&mut self, label: usize, unit: Point, sum: impl IntoIterator<Item = Term>) {
        self.points.push(unit);
        let unit = self.points.len() - 1;
        self.terms.extend(sum);
        let end = self.terms.len();
        self.equations.push(Equation { label, unit, end });
    }

    /// Marks `label` as failing without an equation: a claim that fails a
    /// check of its shape, which no curve work can mend.
    pub(crate) fn reject(&mut self, label: usize) {
        self.rejected.push(label);
    }

    /// The value of a coefficient.
    fn value(&self, k: Coef) -> Scalar {
        let v = self.scalars[k.0 >> 1];
        [v, -v][k.0 & 1]
    }

    /// Checks every equation in one multi-scalar multiplication. `Ok` iff
    /// all hold and nothing was rejected; otherwise the sorted failing
    /// labels: the rejected ones, and — when the combination does not
    /// vanish — every label whose equations fail a batch of their own
    /// (with a single label in the batch, that label, checked no further).
    /// The bases are dropped once normalised, before the MSM runs.
    pub fn check(mut self) -> Result<(), Vec<usize>> {
        let points = Point::batch_normalize(&std::mem::take(&mut self.points));
        let weights = WeightStream::new(&self.seed(&points)).flatten();
        let mut sums = vec![Scalar::ZERO; points.len()];
        let mut start = 0;
        for (eq, rho) in self.equations.iter().zip(weights) {
            sums[eq.unit] += rho;
            for &(base, k) in &self.terms[start..eq.end] {
                let product = rho * self.scalars[k.0 >> 1];
                if k.0 & 1 == 0 {
                    sums[base] += product;
                } else {
                    sums[base] -= product;
                }
            }
            start = eq.end;
        }
        let mut failing = self.rejected.clone();
        if !Point::msm_affine(&sums, &points).is_identity() {
            failing.extend(self.failing_labels(&points));
        }
        failing.sort_unstable();
        failing.dedup();
        failing.is_empty().then_some(()).ok_or(failing)
    }

    /// The transcript digest: the counts and encodings of every base and
    /// scalar, then each equation's own base, term count and terms' base
    /// and coefficient handles as LEB128 varints (prefix free, so the shape
    /// reads back one way only; one to three bytes a handle).
    fn seed(&self, points: &[Affine]) -> [u8; 32] {
        let mut transcript = Sha256::new();
        transcript.update(b"ddemos/linear-batch/v1");
        transcript.update(&(points.len() as u64).to_be_bytes());
        transcript.update(&(self.scalars.len() as u64).to_be_bytes());
        for point in points {
            transcript.update(&point.to_bytes());
        }
        for scalar in &self.scalars {
            transcript.update(&scalar.to_bytes());
        }
        let mut shape = Vec::with_capacity(3 * (self.equations.len() + self.terms.len()));
        let mut start = 0;
        for eq in &self.equations {
            let terms = &self.terms[start..eq.end];
            start = eq.end;
            let handles = terms.iter().flat_map(|&(base, coef)| [base, coef.0]);
            for mut v in [eq.unit, terms.len()].into_iter().chain(handles) {
                while v >= 0x80 {
                    shape.push(v as u8 | 0x80);
                    v >>= 7;
                }
                shape.push(v as u8);
            }
        }
        transcript.update(&shape);
        transcript.finalize()
    }

    /// The labels whose equations fail on their own: one batch a label,
    /// its bases copied normalised (no inversion) and merged by encoding,
    /// checked afresh — linear in the batch, one small MSM a label.
    fn failing_labels(&self, points: &[Affine]) -> Vec<usize> {
        let mut by_label: BTreeMap<usize, LinearBatch> = BTreeMap::new();
        let mut start = 0;
        for eq in &self.equations {
            let sub = by_label
                .entry(eq.label)
                .or_insert_with(|| LinearBatch::new(0));
            let mut terms = Vec::new();
            for &(base, k) in &self.terms[start..eq.end] {
                terms.push((
                    sub.shared(&points[base].to_point()),
                    sub.scalar(self.value(k)),
                ));
            }
            sub.push(eq.label, points[eq.unit].to_point(), terms);
            start = eq.end;
        }
        if by_label.len() == 1 {
            return by_label.into_keys().collect();
        }
        let failing = by_label
            .into_iter()
            .filter_map(|(label, sub)| sub.check().err().map(|_| label));
        failing.collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::elgamal::{self, Ciphertext, PreparedKey};
    use crate::schnorr::{self, BatchEntry, Signature, SigningKey};
    use crate::zkp::{self, CpFirstMove, OrFirstMove, OrResponse, RowProof};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The weights [`LinearBatch::check`] draws for `batch`.
    pub(crate) fn weights(batch: &LinearBatch) -> WeightStream {
        WeightStream::new(&batch.seed(&Point::batch_normalize(&batch.points)))
    }

    const SIGNATURES: usize = 5;
    const OPENINGS: usize = 5;
    const ROWS: usize = 3;

    /// A proven row of three ciphertexts, as the board holds it.
    type Row = (
        Vec<Ciphertext>,
        Vec<OrFirstMove>,
        Vec<OrResponse>,
        CpFirstMove,
        Scalar,
    );

    /// The claims of one mixed batch: signatures (labels `0..5`),
    /// openings (`5..10`) and proof rows (`10..13`, one label a row).
    struct Claims {
        pk: elgamal::PublicKey,
        messages: Vec<Vec<u8>>,
        signatures: Vec<(SigningKey, Signature)>,
        openings: Vec<(Ciphertext, Scalar, Scalar)>,
        rows: Vec<Row>,
        c: Scalar,
    }

    impl Claims {
        fn honest(rng: &mut StdRng) -> Claims {
            let (_, pk) = elgamal::keygen(rng);
            let prepared = PreparedKey::new(&pk);
            let keys: Vec<SigningKey> = (0..2).map(|_| SigningKey::generate(rng)).collect();
            let messages: Vec<Vec<u8>> = (0..SIGNATURES as u8).map(|i| vec![i; 9]).collect();
            let signatures = messages
                .iter()
                .enumerate()
                .map(|(i, m)| (keys[i % 2], keys[i % 2].sign(m)))
                .collect();
            let openings = (0..OPENINGS as u64)
                .map(|i| {
                    let (m, r) = (Scalar::from_u64(i % 2), Scalar::random(rng));
                    (prepared.encrypt_with(&m, &r), m, r)
                })
                .collect();
            let c = Scalar::random(rng);
            let rows = (0..ROWS)
                .map(|hot| {
                    let (mut cts, mut or_first, mut or_resp) = (vec![], vec![], vec![]);
                    let mut r_sum = Scalar::ZERO;
                    for j in 0..3 {
                        let (bit, r) = (u8::from(j == hot), Scalar::random(rng));
                        r_sum += r;
                        cts.push(prepared.encrypt_with(&Scalar::from_u64(u64::from(bit)), &r));
                        let (first, secrets) = zkp::or_prove(&prepared, bit, &r, rng);
                        or_first.push(first);
                        or_resp.push(secrets.respond(&c));
                    }
                    let (sum_first, secrets) = zkp::sum_prove(&prepared, &r_sum, rng);
                    (cts, or_first, or_resp, sum_first, secrets.respond(&c))
                })
                .collect();
            Claims {
                pk,
                messages,
                signatures,
                openings,
                rows,
                c,
            }
        }

        /// Adds `delta` to one scalar of the claim under `label`.
        fn corrupt(&mut self, label: usize, delta: Scalar, rng: &mut StdRng) {
            match label {
                i if i < SIGNATURES => {
                    let sig = &mut self.signatures[i].1;
                    let mut bytes = sig.to_bytes();
                    bytes[33..].copy_from_slice(&(sig.s() + delta).to_bytes());
                    *sig = Signature::from_bytes(&bytes).expect("canonical");
                }
                i if i < SIGNATURES + OPENINGS => {
                    let opening = &mut self.openings[i - SIGNATURES];
                    if rng.gen() {
                        opening.1 += delta;
                    } else {
                        opening.2 += delta;
                    }
                }
                i => {
                    let row = &mut self.rows[i - SIGNATURES - OPENINGS];
                    let j: usize = rng.gen_range(0..3);
                    match rng.gen_range(0..3usize) {
                        0 => row.2[j].z0 += delta,
                        1 => row.2[j].z1 += delta,
                        _ => row.4 += delta,
                    }
                }
            }
        }

        /// Every claim in one engine batch, checked.
        fn check(&self) -> Result<(), Vec<usize>> {
            let mut batch = LinearBatch::new(0);
            for (label, ((key, sig), m)) in self.signatures.iter().zip(&self.messages).enumerate() {
                let entry: BatchEntry<'_> = (key.verifying_key(), m, *sig);
                schnorr::push_signature(&mut batch, &entry, label);
            }
            let pk = batch.shared(&self.pk.0);
            for (i, opening) in self.openings.iter().enumerate() {
                elgamal::push_opening(&mut batch, pk, opening, SIGNATURES + i);
            }
            for (i, row) in self.rows.iter().enumerate() {
                let proof = RowProof {
                    cts: &row.0,
                    or_first: &row.1,
                    or_resp: &row.2,
                    sum_first: &row.3,
                    sum_z: row.4,
                    c: self.c,
                };
                proof.push(&mut batch, pk, |_| SIGNATURES + OPENINGS + i);
            }
            batch.check()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// One batch of signatures, openings and proof rows, with up to
        /// three claims corrupted by one scalar each: `check` names
        /// exactly the corrupted labels.
        #[test]
        fn prop_check_names_exactly_the_corrupted_labels(seed in any::<u64>(), k in 0usize..=3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut claims = Claims::honest(&mut rng);
            prop_assert_eq!(claims.check(), Ok(()));
            let mut labels: Vec<usize> = (0..SIGNATURES + OPENINGS + ROWS).collect();
            labels.shuffle(&mut rng);
            let mut corrupted = labels[..k].to_vec();
            for &label in &corrupted {
                let delta = Scalar::random(&mut rng);
                claims.corrupt(label, delta, &mut rng);
            }
            corrupted.sort_unstable();
            let expected = if corrupted.is_empty() { Ok(()) } else { Err(corrupted) };
            prop_assert_eq!(claims.check(), expected);
        }
    }

    /// The weights follow the shape, not only the bases and scalars: the
    /// same points and scalars arranged into other equations — a term on
    /// another base, a negated coefficient, the terms split differently —
    /// draw other weights.
    #[test]
    fn weights_follow_the_shape() {
        let (g, p) = (Point::generator(), Point::generator().double());
        let stream = |terms: [&[(usize, bool)]; 2]| {
            let mut batch = LinearBatch::new(0);
            let base = batch.bases([p]).start;
            let k = batch.scalar(Scalar::from_u64(5));
            for (unit, terms) in [g, p].into_iter().zip(terms) {
                let terms = terms.iter().map(|&(at, neg)| {
                    let b = [LinearBatch::G, base][at];
                    (b, if neg { -k } else { k })
                });
                batch.push(0, unit, terms.collect::<Vec<_>>());
            }
            weights(&batch).take(2).flatten().collect::<Vec<_>>()
        };
        let honest = stream([&[(1, false)], &[(0, false)]]);
        let mutants = [
            stream([&[(0, false)], &[(0, false)]]),
            stream([&[(1, true)], &[(0, false)]]),
            stream([&[(1, false), (0, false)], &[]]),
        ];
        for (i, mutant) in mutants.iter().enumerate() {
            for (a, b) in honest.iter().zip(mutant) {
                assert_ne!(a, b, "mutant {i}");
            }
        }
    }

    /// A label rejected for its shape fails without an equation; the
    /// others still verify, and a batch of one label is named without a
    /// second check.
    #[test]
    fn rejected_and_single_labels() {
        assert_eq!(LinearBatch::new(0).check(), Ok(()));
        let mut batch = LinearBatch::new(0);
        batch.reject(4);
        let one = batch.scalar(Scalar::ONE);
        batch.push(1, Point::generator().negate(), [(LinearBatch::G, one)]);
        assert_eq!(batch.check(), Err(vec![4]));
        let mut single = LinearBatch::new(0);
        let one = single.scalar(Scalar::ONE);
        single.push(7, Point::generator(), [(LinearBatch::G, one)]);
        assert_eq!(single.check(), Err(vec![7]));
    }
}
