//! Chaum–Pedersen zero-knowledge proofs of ballot correctness (§III-B).
//!
//! For every option-encoding commitment — a vector of lifted ElGamal
//! ciphertexts — the EA must prove that (a) each ciphertext encrypts 0 or 1
//! (a Sigma-OR of two Chaum–Pedersen DH-tuple proofs) and (b) the element
//! sum encrypts exactly 1 (one more Chaum–Pedersen proof on the aggregated
//! ciphertext).
//!
//! The protocol is split across time and parties exactly as in the paper:
//!
//! 1. **Setup**: the EA computes the *first moves* and posts them on the BB.
//! 2. **Election**: each voter's A/B ballot-part choice contributes one coin;
//!    the concatenated coins hash to the challenge
//!    ([`challenge_from_coins`]).
//! 3. **After the election**: the *final move* is produced jointly by the
//!    trustees, none of whom may learn the witnesses. This works because,
//!    for fixed setup secrets, every response component is an **affine
//!    function of the challenge** `c`: `cⱼ = αⱼ·c + βⱼ`, `zⱼ = γⱼ·c + δⱼ`.
//!    The EA Shamir-shares the eight coefficients ([`OrProverSecrets`]
//!    /[`or_affine_coefficients`]); a trustee's affine combination of its
//!    coefficient shares is a valid share of the response, so `h_t` trustees
//!    reconstruct the exact response without ever knowing which OR branch is
//!    real.
//!
//! Verification comes in two forms. [`or_verify`] and [`sum_verify`] check
//! one proof each, with Shamir double multiplications: the reference the
//! batch is tested against. [`RowProof::push`] enters the proofs of a
//! ballot row, borrowed from the board, into a [`LinearBatch`], in which
//! every point a row's equations share enters once — the path of result
//! publication and of the audit; [`verify_rows`] checks many rows so.

use crate::batch::LinearBatch;
use crate::curve::{CombBatch, FixedBase, Point};
use crate::elgamal::{Ciphertext, PreparedKey, PublicKey};
use crate::field::Scalar;
use crate::sha256::Sha256;

/// First move (commitments) of a Chaum–Pedersen DH-tuple proof for the
/// statement `∃r: a = r·G ∧ b = r·pk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpFirstMove {
    /// `w·G`
    pub t1: Point,
    /// `w·pk`
    pub t2: Point,
}

impl CpFirstMove {
    /// The next first move of an evaluated [`CombBatch`]
    /// ([`sum_prove_into`]).
    ///
    /// # Panics
    /// Panics if `points` runs out.
    pub fn next_from(points: &mut impl Iterator<Item = Point>) -> CpFirstMove {
        let mut next = || points.next().expect("two points a first move");
        CpFirstMove {
            t1: next(),
            t2: next(),
        }
    }

    /// Serializes as 66 bytes (one shared inversion for both points).
    pub fn to_bytes(&self) -> [u8; 66] {
        let encoded = Point::batch_to_bytes(&[self.t1, self.t2]);
        let mut out = [0u8; 66];
        out[..33].copy_from_slice(&encoded[0]);
        out[33..].copy_from_slice(&encoded[1]);
        out
    }
}

/// Verifies a Chaum–Pedersen response: `z·G == t1 + c·a` and
/// `z·pk == t2 + c·b`.
pub fn cp_verify(
    pk: &PublicKey,
    a: &Point,
    b: &Point,
    first: &CpFirstMove,
    c: &Scalar,
    z: &Scalar,
) -> bool {
    // z·G − c·a == t1  ∧  z·pk − c·b == t2 (Shamir double-scalar form).
    Point::double_mul(z, &Point::generator(), &-*c, a) == first.t1
        && Point::double_mul(z, &pk.0, &-*c, b) == first.t2
}

/// First move of the 0/1 OR proof for one lifted ElGamal ciphertext.
///
/// Branch 0 proves `(a, b)` is a DH pair (encrypts 0); branch 1 proves
/// `(a, b − G)` is (encrypts 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrFirstMove {
    /// First move for the "encrypts 0" branch.
    pub branch0: CpFirstMove,
    /// First move for the "encrypts 1" branch.
    pub branch1: CpFirstMove,
}

/// Final move of the 0/1 OR proof: split challenges and responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrResponse {
    /// Challenge assigned to branch 0.
    pub c0: Scalar,
    /// Challenge assigned to branch 1 (`c0 + c1 = c`).
    pub c1: Scalar,
    /// Response for branch 0.
    pub z0: Scalar,
    /// Response for branch 1.
    pub z1: Scalar,
}

impl OrFirstMove {
    /// The next OR first move of an evaluated [`CombBatch`]
    /// ([`or_prove_into`]).
    ///
    /// # Panics
    /// Panics if `points` runs out.
    pub fn next_from(points: &mut impl Iterator<Item = Point>) -> OrFirstMove {
        OrFirstMove {
            branch0: CpFirstMove::next_from(points),
            branch1: CpFirstMove::next_from(points),
        }
    }
}

/// The affine representation of the prover's pending final move:
/// `cⱼ(c) = αⱼ·c + βⱼ`, `zⱼ(c) = γⱼ·c + δⱼ` for branches `j ∈ {0, 1}`.
///
/// These eight scalars are exactly what the EA secret-shares among trustees.
/// Layout: `[α₀, β₀, γ₀, δ₀, α₁, β₁, γ₁, δ₁]`.
#[derive(Clone, Copy)]
pub struct OrProverSecrets {
    coeffs: [Scalar; 8],
}

impl std::fmt::Debug for OrProverSecrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OrProverSecrets(..)")
    }
}

impl OrProverSecrets {
    /// The eight affine coefficients `[α₀, β₀, γ₀, δ₀, α₁, β₁, γ₁, δ₁]`.
    pub fn coefficients(&self) -> [Scalar; 8] {
        self.coeffs
    }

    /// Computes the final move directly (used by tests and by auditors
    /// replaying a reconstructed response).
    pub fn respond(&self, c: &Scalar) -> OrResponse {
        respond_affine(&self.coeffs, c)
    }
}

/// Evaluates the affine response representation at challenge `c`.
pub fn respond_affine(coeffs: &[Scalar; 8], c: &Scalar) -> OrResponse {
    OrResponse {
        c0: coeffs[0] * *c + coeffs[1],
        z0: coeffs[2] * *c + coeffs[3],
        c1: coeffs[4] * *c + coeffs[5],
        z1: coeffs[6] * *c + coeffs[7],
    }
}

/// Draws the OR proof of the ciphertext `Enc(pk, bit; r)`: returns the
/// pending secrets and appends the four points of the first move to
/// `batch` as fixed-base sums, for [`OrFirstMove::next_from`] to read
/// back from its evaluation.
///
/// The false branch is the textbook simulation — commitments
/// `(z̃·G − c̃·a, z̃·pk − c̃·b′)` for a random challenge/response pair
/// `(c̃, z̃)` — but computed from the witness: the prover knows `r` with
/// `a = r·G` and `b′ = r·pk ± G`, so the same two points are
/// `(z̃ − c̃r)·G` and `(z̃ − c̃r)·pk ∓ c̃·G`, sums on the generator and
/// [`PreparedKey`] tables instead of two on the tables and two
/// variable-base ladders. `w, c̃, z̃` are drawn from `rng` in that order
/// and the coefficients are the textbook ones, so the output is the
/// textbook prover's for the same stream.
///
/// # Panics
/// Panics if `bit` is not 0 or 1.
pub fn or_prove_into<'a, R: rand::RngCore + ?Sized>(
    pk: &'a PreparedKey,
    bit: u8,
    r: &Scalar,
    rng: &mut R,
    batch: &mut CombBatch<'a>,
) -> OrProverSecrets {
    assert!(bit <= 1, "plaintext must be a bit");
    let w = Scalar::random(rng);
    let c_sim = Scalar::random(rng);
    let z_sim = Scalar::random(rng);
    let (g, pk) = (FixedBase::generator(), pk.table());

    // Real branch first move: (w·G, w·pk).
    let real: [&[_]; 2] = [&[(g, w)], &[(pk, w)]];
    // Simulated branch: its statement is (a, b − G) when the bit is 0,
    // (a, b) when it is 1, i.e. b′ = r·pk − G resp. r·pk + G.
    let u = c_sim * *r;
    let shift = if bit == 0 { c_sim } else { -c_sim };
    let sim: [&[_]; 2] = [&[(g, z_sim - u)], &[(pk, z_sim - u), (g, shift)]];

    // Affine coefficients. Real branch b: c_b = c − c̃, z_b = w + c_b·r
    //   = r·c + (w − c̃·r). Simulated branch: constants (c̃, z̃).
    let real_coeffs = [Scalar::ONE, -c_sim, *r, w - u];
    let sim_coeffs = [Scalar::ZERO, c_sim, Scalar::ZERO, z_sim];
    let (branch0, branch1, c0, c1) = if bit == 0 {
        (real, sim, real_coeffs, sim_coeffs)
    } else {
        (sim, real, sim_coeffs, real_coeffs)
    };
    for sum in branch0.into_iter().chain(branch1) {
        batch.push(sum);
    }
    let coeffs = [c0[0], c0[1], c0[2], c0[3], c1[0], c1[1], c1[2], c1[3]];
    OrProverSecrets { coeffs }
}

/// The first move and pending secrets of one ciphertext's OR proof: a
/// batch of one [`or_prove_into`].
///
/// # Panics
/// Panics if `bit` is not 0 or 1.
pub fn or_prove<R: rand::RngCore + ?Sized>(
    pk: &PreparedKey,
    bit: u8,
    r: &Scalar,
    rng: &mut R,
) -> (OrFirstMove, OrProverSecrets) {
    let mut batch = CombBatch::new();
    let secrets = or_prove_into(pk, bit, r, rng, &mut batch);
    let first = OrFirstMove::next_from(&mut batch.evaluate().into_iter());
    (first, secrets)
}

/// Verifies a complete 0/1 OR proof for `ct` under challenge `c`.
pub fn or_verify(
    pk: &PublicKey,
    ct: &Ciphertext,
    first: &OrFirstMove,
    resp: &OrResponse,
    c: &Scalar,
) -> bool {
    if resp.c0 + resp.c1 != *c {
        return false;
    }
    let b1 = ct.b - Point::generator();
    cp_verify(pk, &ct.a, &ct.b, &first.branch0, &resp.c0, &resp.z0)
        && cp_verify(pk, &ct.a, &b1, &first.branch1, &resp.c1, &resp.z1)
}

/// Pending secrets for the "sum of row encrypts exactly 1" proof.
///
/// The response is `z(c) = γ·c + δ` with `γ = Σrⱼ` (the aggregate
/// randomness) and `δ = w`; layout `[γ, δ]`.
#[derive(Clone, Copy)]
pub struct SumProverSecrets {
    coeffs: [Scalar; 2],
}

impl std::fmt::Debug for SumProverSecrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SumProverSecrets(..)")
    }
}

impl SumProverSecrets {
    /// The affine coefficients `[γ, δ]`.
    pub fn coefficients(&self) -> [Scalar; 2] {
        self.coeffs
    }

    /// Computes the response directly.
    pub fn respond(&self, c: &Scalar) -> Scalar {
        self.coeffs[0] * *c + self.coeffs[1]
    }
}

/// Draws the sum proof of a row of ciphertexts whose aggregate
/// randomness is `r_sum` (the row must encrypt total 1): returns the
/// pending secrets and appends the first move `(w·G, w·pk)` to `batch`,
/// for [`CpFirstMove::next_from`] to read back from its evaluation.
pub fn sum_prove_into<'a, R: rand::RngCore + ?Sized>(
    pk: &'a PreparedKey,
    r_sum: &Scalar,
    rng: &mut R,
    batch: &mut CombBatch<'a>,
) -> SumProverSecrets {
    let w = Scalar::random(rng);
    batch.push(&[(FixedBase::generator(), w)]);
    batch.push(&[(pk.table(), w)]);
    SumProverSecrets {
        coeffs: [*r_sum, w],
    }
}

/// The sum proof's first move and pending secrets: a batch of one
/// [`sum_prove_into`].
pub fn sum_prove<R: rand::RngCore + ?Sized>(
    pk: &PreparedKey,
    r_sum: &Scalar,
    rng: &mut R,
) -> (CpFirstMove, SumProverSecrets) {
    let mut batch = CombBatch::new();
    let secrets = sum_prove_into(pk, r_sum, rng, &mut batch);
    let first = CpFirstMove::next_from(&mut batch.evaluate().into_iter());
    (first, secrets)
}

/// Verifies the sum proof: the element-wise sum of `row` minus `Enc(1; 0)`
/// must be a DH pair.
pub fn sum_verify(
    pk: &PublicKey,
    row: &[Ciphertext],
    first: &CpFirstMove,
    c: &Scalar,
    z: &Scalar,
) -> bool {
    let total: Ciphertext = row.iter().copied().sum();
    let b_shifted = total.b - Point::generator();
    cp_verify(pk, &total.a, &b_shifted, first, c, z)
}

/// The proofs of one ballot row, as a verifier finds them published: the
/// row's ciphertexts, each with its OR proof, and the sum proof that the
/// row encrypts 1 in all, under the challenge `c`. The slices are borrowed
/// from the board; [`verify_rows`] checks many rows in one MSM.
#[derive(Clone, Copy, Debug)]
pub struct RowProof<'a> {
    /// The row's ciphertexts.
    pub cts: &'a [Ciphertext],
    /// One OR first move per ciphertext.
    pub or_first: &'a [OrFirstMove],
    /// One OR final move per ciphertext.
    pub or_resp: &'a [OrResponse],
    /// The sum proof's first move.
    pub sum_first: &'a CpFirstMove,
    /// The sum proof's response.
    pub sum_z: Scalar,
    /// The challenge.
    pub c: Scalar,
}

/// Terms a row of `m` ciphertexts adds to a batch MSM
/// ([`RowProof::push`]): every ciphertext's `a` and `b`, four first-move
/// points an OR proof and the sum proof's two.
pub fn row_terms(m: usize) -> usize {
    6 * m + 2
}

impl RowProof<'_> {
    /// Enters the row's proofs into `batch`: per OR branch `j`
    /// `t1ⱼ + cⱼ·a − zⱼ·G = 0` and `t2ⱼ + cⱼ·(b − j·G) − zⱼ·pk = 0`, and
    /// for the sum `s1 + c·Σa − z·G = 0`, `s2 + c·(Σb − G) − z·pk = 0`;
    /// `a` and `b` enter once and `pk` is a shared base, so a row adds
    /// [`row_terms`] points. The OR proof of ciphertext `j` goes under
    /// `label(Some(j))` (rejected if `c0 + c1 ≠ c`; ciphertexts past
    /// `or_first` or `or_resp` have none), the sum proof under `label(None)`.
    pub fn push(&self, batch: &mut LinearBatch, pk: usize, label: impl Fn(Option<usize>) -> usize) {
        let g = LinearBatch::G;
        let a = batch.bases(self.cts.iter().map(|ct| ct.a));
        let b = batch.bases(self.cts.iter().map(|ct| ct.b));
        let c = batch.scalar(self.c);
        let ors = self.or_first.iter().zip(self.or_resp).take(self.cts.len());
        for (j, (first, resp)) in ors.enumerate() {
            let label = label(Some(j));
            if resp.c0 + resp.c1 != self.c {
                batch.reject(label);
                continue;
            }
            let [c0, c1, z0, z1] = [resp.c0, resp.c1, resp.z0, resp.z1].map(|k| batch.scalar(k));
            let (aj, bj, b0, b1) = (a.start + j, b.start + j, first.branch0, first.branch1);
            batch.push(label, b0.t1, [(aj, c0), (g, -z0)]);
            batch.push(label, b0.t2, [(bj, c0), (pk, -z0)]);
            batch.push(label, b1.t1, [(aj, c1), (g, -z1)]);
            batch.push(label, b1.t2, [(bj, c1), (g, -c1), (pk, -z1)]);
        }
        let (label, z) = (label(None), batch.scalar(self.sum_z));
        let sum_a = a.map(|aj| (aj, c)).chain([(g, -z)]);
        batch.push(label, self.sum_first.t1, sum_a);
        let sum_b = b.map(|bj| (bj, c)).chain([(g, -c), (pk, -z)]);
        batch.push(label, self.sum_first.t2, sum_b);
    }
}

/// Verifies every proof of `rows` in one [`LinearBatch`]: equal, but for a
/// chance of at most 2⁻¹²⁸, to [`or_verify`] and [`sum_verify`] on each.
/// Mismatched lengths and split challenges that do not recombine to `c`
/// fail before any curve work. A failure names no culprit.
pub fn verify_rows(pk: &PublicKey, rows: &[RowProof<'_>]) -> bool {
    let well_formed = rows.iter().all(|row| {
        row.or_first.len() == row.cts.len()
            && row.or_resp.len() == row.cts.len()
            && row.or_resp.iter().all(|resp| resp.c0 + resp.c1 == row.c)
    });
    if !well_formed {
        return false;
    }
    let terms = rows.iter().map(|row| row_terms(row.cts.len()));
    let mut batch = LinearBatch::new(2 + terms.sum::<usize>());
    let pk = batch.shared(&pk.0);
    for row in rows {
        row.push(&mut batch, pk, |_| 0);
    }
    batch.check().is_ok()
}

/// Derives the proof challenge from the voters' A/B coins (§III-B: "all the
/// voters' coins are collected and used as the challenge").
///
/// Coins are packed into bytes MSB-first; the `context` binds the challenge
/// to the election.
pub fn challenge_from_coins(context: &[u8], coins: &[bool]) -> Scalar {
    let mut packed = vec![0u8; coins.len().div_ceil(8)];
    for (i, &coin) in coins.iter().enumerate() {
        if coin {
            packed[i / 8] |= 1 << (7 - i % 8);
        }
    }
    let mut h = Sha256::new();
    h.update(b"ddemos/zk-challenge/v1");
    h.update(&(context.len() as u64).to_be_bytes());
    h.update(context);
    h.update(&(coins.len() as u64).to_be_bytes());
    h.update(&packed);
    Scalar::from_bytes_reduce(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_with, keygen};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (StdRng, PublicKey, PreparedKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, pk) = keygen(&mut rng);
        (rng, pk, PreparedKey::new(&pk))
    }

    /// The textbook prover — the false branch simulated from the public
    /// statement alone, `(z̃·G − c̃·a, z̃·pk − c̃·b′)`, on variable-base
    /// ladders — as the oracle [`or_prove`] must reproduce.
    fn or_prove_textbook(
        pk: &PublicKey,
        ct: &Ciphertext,
        bit: u8,
        r: &Scalar,
        rng: &mut StdRng,
    ) -> (OrFirstMove, [Scalar; 8]) {
        let w = Scalar::random(rng);
        let c_sim = Scalar::random(rng);
        let z_sim = Scalar::random(rng);
        let real = CpFirstMove {
            t1: Point::generator().mul(&w),
            t2: pk.0.mul(&w),
        };
        let b_sim = if bit == 0 {
            ct.b - Point::generator()
        } else {
            ct.b
        };
        let sim = CpFirstMove {
            t1: Point::generator().mul(&z_sim) - ct.a.mul(&c_sim),
            t2: pk.0.mul(&z_sim) - b_sim.mul(&c_sim),
        };
        let real_coeffs = [Scalar::ONE, -c_sim, *r, w - c_sim * *r];
        let sim_coeffs = [Scalar::ZERO, c_sim, Scalar::ZERO, z_sim];
        let (branch0, branch1, c0, c1) = if bit == 0 {
            (real, sim, real_coeffs, sim_coeffs)
        } else {
            (sim, real, sim_coeffs, real_coeffs)
        };
        (
            OrFirstMove { branch0, branch1 },
            [c0[0], c0[1], c0[2], c0[3], c1[0], c1[1], c1[2], c1[3]],
        )
    }

    #[test]
    fn or_proof_accepts_valid_bits() {
        let (mut rng, pk, prepared) = setup(1);
        for bit in [0u8, 1] {
            let r = Scalar::random(&mut rng);
            let ct = encrypt_with(&pk, &Scalar::from_u64(u64::from(bit)), &r);
            let (first, secrets) = or_prove(&prepared, bit, &r, &mut rng);
            let c = challenge_from_coins(b"test", &[true, false, true]);
            let resp = secrets.respond(&c);
            assert!(or_verify(&pk, &ct, &first, &resp, &c), "bit {bit}");
        }
    }

    #[test]
    fn or_proof_rejects_wrong_challenge() {
        let (mut rng, pk, prepared) = setup(2);
        let r = Scalar::random(&mut rng);
        let ct = encrypt_with(&pk, &Scalar::ZERO, &r);
        let (first, secrets) = or_prove(&prepared, 0, &r, &mut rng);
        let c = challenge_from_coins(b"test", &[true]);
        let resp = secrets.respond(&c);
        let other = challenge_from_coins(b"test", &[false]);
        assert!(!or_verify(&pk, &ct, &first, &resp, &other));
    }

    #[test]
    fn or_proof_sound_against_invalid_plaintext() {
        // A ciphertext of 2 cannot be proven 0/1: a cheating prover who
        // fixed its simulated challenges before seeing c fails whp.
        let (mut rng, pk, prepared) = setup(3);
        let r = Scalar::random(&mut rng);
        let ct = encrypt_with(&pk, &Scalar::from_u64(2), &r);
        // Cheat as if bit = 0 (statement false) — prover lies about bit.
        let (first, secrets) = or_prove(&prepared, 0, &r, &mut rng);
        let c = challenge_from_coins(b"test", &[true, true]);
        let resp = secrets.respond(&c);
        assert!(!or_verify(&pk, &ct, &first, &resp, &c));
    }

    #[test]
    fn or_proof_response_is_affine_in_challenge() {
        // The distributed-trustee path depends on this exactness.
        let (mut rng, _pk, prepared) = setup(4);
        let r = Scalar::random(&mut rng);
        let (_first, secrets) = or_prove(&prepared, 1, &r, &mut rng);
        let coeffs = secrets.coefficients();
        let c = Scalar::from_u64(987654321);
        let direct = secrets.respond(&c);
        let via_coeffs = respond_affine(&coeffs, &c);
        assert_eq!(direct, via_coeffs);
        // α₀ + α₁ = 1 and β₀ + β₁ = 0, so c0+c1 = c for every c.
        assert_eq!(coeffs[0] + coeffs[4], Scalar::ONE);
        assert_eq!(coeffs[1] + coeffs[5], Scalar::ZERO);
    }

    #[test]
    fn sum_proof_roundtrip() {
        let (mut rng, pk, prepared) = setup(5);
        // Row encrypting the unit vector e_2 of length 4.
        let mut row = Vec::new();
        let mut r_sum = Scalar::ZERO;
        for j in 0..4u64 {
            let r = Scalar::random(&mut rng);
            r_sum += r;
            row.push(encrypt_with(&pk, &Scalar::from_u64(u64::from(j == 2)), &r));
        }
        let (first, secrets) = sum_prove(&prepared, &r_sum, &mut rng);
        let c = challenge_from_coins(b"ctx", &[false, true]);
        let z = secrets.respond(&c);
        assert!(sum_verify(&pk, &row, &first, &c, &z));
        // A row summing to 2 fails.
        let extra_r = Scalar::random(&mut rng);
        let mut bad_row = row.clone();
        bad_row.push(encrypt_with(&pk, &Scalar::ONE, &extra_r));
        assert!(!sum_verify(&pk, &bad_row, &first, &c, &z));
    }

    /// The witness-based prover on the prepared tables is the plain
    /// textbook prover: same first moves, same coefficients, for the same
    /// RNG stream, whichever branch is real.
    #[test]
    fn prepared_prove_matches_plain() {
        let (mut rng_a, pk, prepared) = setup(11);
        for bit in [0u8, 1] {
            let r = Scalar::random(&mut rng_a);
            let ct = encrypt_with(&pk, &Scalar::from_u64(u64::from(bit)), &r);
            let mut rng_b = rng_a.clone();
            let (first_a, coeffs_a) = or_prove_textbook(&pk, &ct, bit, &r, &mut rng_a);
            let (first_b, secrets_b) = or_prove(&prepared, bit, &r, &mut rng_b);
            assert_eq!(first_a, first_b, "bit {bit}");
            assert_eq!(coeffs_a, secrets_b.coefficients(), "bit {bit}");
            // Both consumed the same stream.
            assert_eq!(Scalar::random(&mut rng_a), Scalar::random(&mut rng_b));
        }
    }

    /// A proven row with everything a [`RowProof`] borrows: ciphertexts
    /// of `bits`, their OR proofs and the sum proof, answered at `c`.
    #[derive(Clone)]
    struct OwnedRow {
        cts: Vec<Ciphertext>,
        or_first: Vec<OrFirstMove>,
        or_resp: Vec<OrResponse>,
        sum_first: CpFirstMove,
        sum_z: Scalar,
        c: Scalar,
    }

    impl OwnedRow {
        fn prove(prepared: &PreparedKey, bits: &[u8], c: Scalar, rng: &mut StdRng) -> OwnedRow {
            let (mut cts, mut or_first, mut or_resp) = (Vec::new(), Vec::new(), Vec::new());
            let mut r_sum = Scalar::ZERO;
            for &bit in bits {
                let r = Scalar::random(rng);
                r_sum += r;
                cts.push(prepared.encrypt_with(&Scalar::from_u64(u64::from(bit)), &r));
                let (first, secrets) = or_prove(prepared, bit, &r, rng);
                or_first.push(first);
                or_resp.push(secrets.respond(&c));
            }
            let (sum_first, secrets) = sum_prove(prepared, &r_sum, rng);
            OwnedRow {
                cts,
                or_first,
                or_resp,
                sum_first,
                sum_z: secrets.respond(&c),
                c,
            }
        }

        /// A valid row: the unit vector with its one at `hot`.
        fn unit(
            prepared: &PreparedKey,
            m: usize,
            hot: usize,
            c: Scalar,
            rng: &mut StdRng,
        ) -> OwnedRow {
            let bits: Vec<u8> = (0..m).map(|j| u8::from(j == hot)).collect();
            OwnedRow::prove(prepared, &bits, c, rng)
        }

        fn proof(&self) -> RowProof<'_> {
            RowProof {
                cts: &self.cts,
                or_first: &self.or_first,
                or_resp: &self.or_resp,
                sum_first: &self.sum_first,
                sum_z: self.sum_z,
                c: self.c,
            }
        }

        /// The per-proof reference: every OR proof and the sum proof.
        fn verify_each(&self, pk: &PublicKey) -> bool {
            let ors = self.cts.iter().zip(&self.or_first).zip(&self.or_resp);
            ors.into_iter()
                .all(|((ct, first), resp)| or_verify(pk, ct, first, resp, &self.c))
                && sum_verify(pk, &self.cts, &self.sum_first, &self.c, &self.sum_z)
        }
    }

    fn verify_owned(pk: &PublicKey, rows: &[OwnedRow]) -> bool {
        let proofs: Vec<RowProof<'_>> = rows.iter().map(OwnedRow::proof).collect();
        verify_rows(pk, &proofs)
    }

    /// One corruption of ciphertext `j` of a row (or of its sum proof):
    /// each response, each statement point and each first-move point.
    type Corruption = fn(&mut OwnedRow, usize);

    fn corruptions() -> [(&'static str, Corruption); 15] {
        use Point as P;
        [
            ("c0", |row, j| row.or_resp[j].c0 += Scalar::ONE),
            ("c1", |row, j| row.or_resp[j].c1 += Scalar::ONE),
            ("c0 + 1, c1 - 1", |row, j| {
                row.or_resp[j].c0 += Scalar::ONE;
                row.or_resp[j].c1 -= Scalar::ONE;
            }),
            ("z0", |row, j| row.or_resp[j].z0 += Scalar::ONE),
            ("z1", |row, j| row.or_resp[j].z1 += Scalar::ONE),
            ("sum z", |row, _| row.sum_z += Scalar::ONE),
            ("a", |row, j| row.cts[j].a += P::generator()),
            ("b", |row, j| row.cts[j].b += P::generator()),
            ("b by a", |row, j| {
                let a = row.cts[j].a;
                row.cts[j].b += a;
            }),
            ("branch0 t1", |row, j| {
                row.or_first[j].branch0.t1 += P::generator()
            }),
            ("branch0 t2", |row, j| {
                row.or_first[j].branch0.t2 += P::generator()
            }),
            ("branch1 t1", |row, j| {
                row.or_first[j].branch1.t1 += P::generator()
            }),
            ("branch1 t2", |row, j| {
                row.or_first[j].branch1.t2 += P::generator()
            }),
            ("sum t1", |row, _| row.sum_first.t1 += P::generator()),
            ("sum t2", |row, _| row.sum_first.t2 += P::generator()),
        ]
    }

    #[test]
    fn batch_rows_accepts_valid_and_rejects_tampered() {
        let (mut rng, pk, prepared) = setup(12);
        let c = challenge_from_coins(b"batch", &[true, false, true]);
        let rows: Vec<OwnedRow> = [1, 2, 5, 2, 1, 5]
            .into_iter()
            .enumerate()
            .map(|(i, m)| OwnedRow::unit(&prepared, m, i % m, c, &mut rng))
            .collect();
        for row in &rows {
            assert!(row.verify_each(&pk));
            assert!(
                verify_owned(&pk, std::slice::from_ref(row)),
                "m = {}",
                row.cts.len()
            );
        }
        assert!(verify_owned(&pk, &rows));
        assert!(verify_rows(&pk, &[]));
        // A row encrypting two ones has valid OR proofs and a false sum.
        let two = OwnedRow::prove(&prepared, &[1, 0, 1], c, &mut rng);
        assert!(!two.verify_each(&pk));
        assert!(!verify_owned(&pk, &[rows[0].clone(), two]));
        for (what, corrupt) in corruptions() {
            let mut bad = rows.clone();
            corrupt(&mut bad[2], 4);
            assert!(!verify_owned(&pk, &bad), "{what}");
        }
        // Malformed rows are rejected, not indexed past.
        let short = |cut: fn(&mut OwnedRow)| {
            let mut bad = rows.clone();
            cut(&mut bad[1]);
            verify_owned(&pk, &bad)
        };
        assert!(!short(|row| {
            row.or_first.pop();
        }));
        assert!(!short(|row| {
            row.or_resp.pop();
        }));
        assert!(!short(|row| row.or_resp.clear()));
        assert!(!short(|row| row.c += Scalar::ONE));
        // An identity ciphertext weighs nothing in any equation: only the
        // shape check rejects it arriving without its OR response.
        assert!(!short(|row| {
            row.cts.push(Ciphertext::IDENTITY);
            row.or_first.push(row.or_first[0]);
        }));
    }

    /// At the size where the MSM sorts thousands of points a window: one
    /// corrupted scalar or point of any proof of any row still sinks the
    /// batch — at the first row, the last and one between.
    #[test]
    fn batch_rows_rejects_any_single_corruption_at_scale() {
        let (mut rng, pk, prepared) = setup(13);
        let c = challenge_from_coins(b"scale", &[true, true, false]);
        let rows: Vec<OwnedRow> = (0..300)
            .map(|i| OwnedRow::unit(&prepared, 2, i % 2, c, &mut rng))
            .collect();
        assert!(verify_owned(&pk, &rows));
        let random = 1 + rng.gen_range(0..rows.len() - 2);
        for at in [0, rows.len() - 1, random] {
            for (what, corrupt) in corruptions() {
                let mut bad = rows.clone();
                corrupt(&mut bad[at], at % 2);
                assert!(!verify_owned(&pk, &bad), "{what} of row {at}");
            }
        }
    }

    /// Two compensating corruptions that an equal-weight sum accepts —
    /// `z0 + δ` on one ciphertext of a row, `z0 − δ` on another, adding
    /// and taking away the same `δ·(G + pk)` — are rejected: each
    /// equation has a weight of its own.
    #[test]
    fn batch_rows_rejects_a_cancelling_pair() {
        let (mut rng, pk, prepared) = setup(14);
        let c = challenge_from_coins(b"pair", &[false, true]);
        let rows: Vec<OwnedRow> = (0..4)
            .map(|i| OwnedRow::unit(&prepared, 3, i % 3, c, &mut rng))
            .collect();
        assert!(verify_owned(&pk, &rows));
        let delta = Scalar::random(&mut rng);
        let mut bad = rows;
        bad[1].or_resp[0].z0 += delta;
        bad[1].or_resp[2].z0 -= delta;
        assert!(!verify_owned(&pk, &bad));
    }

    /// The weights follow the whole transcript: any single point, scalar
    /// or row length changed moves every weight of the stream.
    #[test]
    fn row_weights_follow_every_point_scalar_and_length() {
        let (mut rng, pk, prepared) = setup(15);
        let c = challenge_from_coins(b"weights", &[true]);
        let rows: Vec<OwnedRow> = (0..3)
            .map(|i| OwnedRow::unit(&prepared, 3, i, c, &mut rng))
            .collect();
        let stream = |rows: &[OwnedRow]| -> Vec<Scalar> {
            let mut batch = LinearBatch::new(0);
            let pk = batch.shared(&pk.0);
            for row in rows {
                row.proof().push(&mut batch, pk, |_| 0);
            }
            crate::batch::tests::weights(&batch)
                .take(8)
                .flatten()
                .collect()
        };
        let base = stream(&rows);
        let mut mutants: Vec<(&str, Vec<OwnedRow>)> = corruptions()
            .into_iter()
            .map(|(what, corrupt)| {
                let mut bad = rows.clone();
                corrupt(&mut bad[1], 2);
                (what, bad)
            })
            .collect();
        let mut challenge = rows.clone();
        challenge[2].c += Scalar::ONE;
        mutants.push(("challenge", challenge));
        let mut shorter = rows.clone();
        shorter[0].cts.pop();
        shorter[0].or_first.pop();
        shorter[0].or_resp.pop();
        mutants.push(("row length", shorter));
        for (what, bad) in mutants {
            for (k, (a, b)) in base.iter().zip(stream(&bad)).enumerate() {
                assert_ne!(*a, b, "{what}: weight {k}");
            }
        }
    }

    #[test]
    fn challenge_depends_on_coins_and_context() {
        let a = challenge_from_coins(b"e1", &[true, false]);
        let b = challenge_from_coins(b"e1", &[true, true]);
        let c = challenge_from_coins(b"e2", &[true, false]);
        let d = challenge_from_coins(b"e1", &[true, false]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, d);
        // Length-sensitivity: [1] vs [1,0] must differ.
        assert_ne!(
            challenge_from_coins(b"e", &[true]),
            challenge_from_coins(b"e", &[true, false])
        );
    }

    /// Every coin is bound: flipping any one coin of an `n`-coin vector
    /// changes the challenge, at every position for every `n` up to 70
    /// (across byte edges), and so does appending a `false` coin, which
    /// leaves the packed bytes as they are for `n` not a multiple of 8.
    #[test]
    fn challenge_binds_every_coin_and_the_count() {
        let mut rng = StdRng::seed_from_u64(16);
        for n in 1..=70 {
            let coins: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let base = challenge_from_coins(b"bind", &coins);
            for i in 0..n {
                let mut flipped = coins.clone();
                flipped[i] = !flipped[i];
                let moved = challenge_from_coins(b"bind", &flipped);
                assert_ne!(moved, base, "n = {n}, coin {i}");
            }
            let mut longer = coins;
            longer.push(false);
            assert_ne!(challenge_from_coins(b"bind", &longer), base, "n = {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// One row alone: the batch verdict is the per-proof verdict,
        /// honest or with one random corruption, valid sum or not.
        #[test]
        fn prop_row_batch_matches_per_proof(seed in any::<u64>(),
                                            bits in proptest::collection::vec(0u8..2, 1..6),
                                            corrupt in any::<bool>(), kind in any::<usize>(), at in any::<usize>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, pk) = keygen(&mut rng);
            let prepared = PreparedKey::new(&pk);
            let c = Scalar::random(&mut rng);
            let mut row = OwnedRow::prove(&prepared, &bits, c, &mut rng);
            if corrupt {
                let all = corruptions();
                (all[kind % all.len()].1)(&mut row, at % bits.len());
            }
            prop_assert_eq!(verify_owned(&pk, std::slice::from_ref(&row)), row.verify_each(&pk));
        }

        #[test]
        fn prop_or_proof_complete(seed in any::<u64>(), bit in 0u8..2,
                                  coins in proptest::collection::vec(any::<bool>(), 1..64)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, pk) = keygen(&mut rng);
            let prepared = PreparedKey::new(&pk);
            let r = Scalar::random(&mut rng);
            let ct = encrypt_with(&pk, &Scalar::from_u64(u64::from(bit)), &r);
            let mut oracle_rng = rng.clone();
            let (first, secrets) = or_prove(&prepared, bit, &r, &mut rng);
            let (oracle_first, oracle_coeffs) =
                or_prove_textbook(&pk, &ct, bit, &r, &mut oracle_rng);
            prop_assert_eq!(first, oracle_first);
            prop_assert_eq!(secrets.coefficients(), oracle_coeffs);
            let c = challenge_from_coins(b"prop", &coins);
            let resp = secrets.respond(&c);
            prop_assert!(or_verify(&pk, &ct, &first, &resp, &c));
        }
    }
}
