//! Criterion micro-benchmarks for the cryptographic and consensus
//! substrates (supporting data, not a paper figure): curve ops, hashing,
//! AES, signatures, secret sharing, ZK proofs, and one full endorsement
//! round's worth of crypto.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddemos_crypto::cpu;
use ddemos_crypto::curve::{self, FixedBase, Point};
use ddemos_crypto::elgamal;
use ddemos_crypto::field::{Fp, Scalar};
use ddemos_crypto::hmac::{HmacKey, Prf, PrfRng};
use ddemos_crypto::schnorr::{Signature, SigningKey};
use ddemos_crypto::sha256::{self, sha256};
use ddemos_crypto::shamir;
use ddemos_crypto::zkp;
use ddemos_crypto::{aes, vss};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// In-run ratio gate: `numer` must cost at least `min_ratio` times
/// `denom`, both timed here, back to back, on this machine — so the bound
/// can be tight where an absolute baseline from another machine cannot.
/// ("A at most 3× B" is B over A with a floor of 1/3.) Runs under
/// `--test` too (CI's smoke mode). It decides on the median ratio of nine
/// A/B pairs, each side about five milliseconds of calls (one call, for a
/// routine that takes longer): the two sides of a pair run back to back,
/// so that a busy spell on a shared host slows both or neither, and one
/// disturbed pair cannot decide.
fn ratio_gate<A, B>(
    what: &str,
    mut numer: impl FnMut() -> A,
    mut denom: impl FnMut() -> B,
    min_ratio: f64,
) {
    const PAIRS: usize = 9;
    fn calibrate<O>(routine: &mut impl FnMut() -> O) -> u32 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(routine());
        let once_ns = t0.elapsed().as_nanos().max(1);
        (5_000_000 / once_ns).clamp(1, 20_000) as u32
    }
    fn round_ns<O>(routine: &mut impl FnMut() -> O, iters: u32) -> f64 {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(iters)
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (numer_iters, denom_iters) = (calibrate(&mut numer), calibrate(&mut denom));
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|_| {
            let numer_ns = round_ns(&mut numer, numer_iters);
            (numer_ns, round_ns(&mut denom, denom_iters))
        })
        .collect();
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|(n, d)| n / d.max(f64::MIN_POSITIVE))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let (lo, ratio, hi) = (ratios[0], ratios[PAIRS / 2], ratios[PAIRS - 1]);
    println!(
        "ratio gate: {what}: {:.0} ns / {:.0} ns, median of {PAIRS} pairs {ratio:.2}x \
         (range {lo:.2}x–{hi:.2}x, floor {min_ratio:.2}x)",
        median(pairs.iter().map(|p| p.0).collect()),
        median(pairs.iter().map(|p| p.1).collect()),
    );
    assert!(
        ratio >= min_ratio,
        "ratio gate failed: {what} = {ratio:.2}x, below the {min_ratio:.2}x floor"
    );
}

/// `id` for a row whose kernel runs on a dispatched kernel (the
/// batch-affine reducer, the SHA-256 compression), tagged with the
/// kernels this process runs (`cpu::backend()`, e.g.
/// `sha-ni+avx512bw+avx512ifma` or `portable`), so that
/// `scripts/bench_check.sh` compares it only with a baseline taken on the
/// same ones: on others it is a new row (they differ 2–5×).
fn tagged(id: &str) -> String {
    format!("{id} [{}]", cpu::backend())
}

/// Hands out the scalars of a slice in turn. A comb multiplication is
/// ~50 reads out of a 52 KiB table, and one scalar read over and over
/// keeps its own entries in L1 — which no caller does; over a few hundred
/// distinct scalars the table sits in L2, as it does under set-up.
fn cycle<'a>(scalars: &'a [Scalar]) -> impl FnMut() -> &'a Scalar {
    let mut next = scalars.iter().cycle();
    move || next.next().expect("a non-empty slice")
}

fn bench_curve(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let k = Scalar::random(&mut rng);
    let p = Point::mul_generator(&Scalar::random(&mut rng));
    let ks: Vec<Scalar> = (0..512).map(|_| Scalar::random(&mut rng)).collect();
    let mut next = cycle(&ks);
    c.bench_function("curve/mul_generator (comb)", |b| {
        b.iter(|| Point::mul_generator(std::hint::black_box(next())))
    });
    c.bench_function("curve/mul_varpoint", |b| {
        b.iter(|| p.mul(std::hint::black_box(&k)))
    });
}

/// The batched crypto kernels against their per-item baselines — the
/// `BENCH_micro.json` numbers the perf trajectory tracks.
fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    // MSM, Pippenger vs the naive scalar-mul-and-add loop: 64 terms (a
    // collector's large burst), 512, and 8192 (a full `VERIFY_TERMS`
    // publication batch). The larger sums take their points as the batch
    // verifiers hand them over — normalised for the transcript, as off the
    // wire.
    let scalars: Vec<Scalar> = (0..8192).map(|_| Scalar::random(&mut rng)).collect();
    let points: Vec<Point> = (0..8192)
        .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
        .collect();
    let normalised: Vec<Point> = Point::batch_to_bytes(&points)
        .iter()
        .map(|bytes| Point::from_bytes(bytes).expect("own encoding"))
        .collect();
    let naive = |n: usize| {
        std::hint::black_box(&scalars[..n])
            .iter()
            .zip(&points[..n])
            .fold(Point::IDENTITY, |acc, (k, p)| acc.add(&p.mul(k)))
    };
    c.bench_function(&tagged("kernel/msm 64 (pippenger)"), |b| {
        b.iter(|| Point::msm(std::hint::black_box(&scalars[..64]), &points[..64]))
    });
    c.bench_function("kernel/msm 64 (naive loop)", |b| b.iter(|| naive(64)));
    for n in [512, 8192] {
        c.bench_function(&tagged(&format!("kernel/msm {n} (pippenger)")), |b| {
            b.iter(|| Point::msm(std::hint::black_box(&scalars[..n]), &normalised[..n]))
        });
        c.bench_function(&format!("kernel/msm {n} (naive loop)"), |b| {
            b.iter(|| naive(n))
        });
    }
    // 2.76× is what the textbook kernel (unsigned digits, Jacobian
    // buckets: 2.44 ms against 6.72) made of 64 terms.
    ratio_gate(
        "naive loop 64 / msm 64",
        || naive(64),
        || Point::msm(std::hint::black_box(&scalars[..64]), &points[..64]),
        2.76,
    );
    // 8× a term at 8192: the whole sum for the price of 1024 naive terms
    // (the naive loop is linear, and all 8192 take half a second a call).
    ratio_gate(
        "naive loop 1024 / msm 8192",
        || naive(1024),
        || Point::msm(std::hint::black_box(&scalars), &normalised),
        1.0,
    );
    // The same sum under 128-bit scalars, the batch verifiers' weights:
    // every Booth digit above bit ~129 is zero and never meets a bucket,
    // so a short term costs half the inserts of a full one. The gate
    // fails if a kernel change stops skipping the zero top windows.
    let short: Vec<Scalar> = (0..8192)
        .map(|_| Scalar::from_u128(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())))
        .collect();
    c.bench_function(&tagged("kernel/msm 8192 (128-bit scalars)"), |b| {
        b.iter(|| Point::msm(std::hint::black_box(&short), &normalised))
    });
    ratio_gate(
        "msm 8192 / msm 8192 (128-bit scalars)",
        || Point::msm(std::hint::black_box(&scalars), &normalised),
        || Point::msm(std::hint::black_box(&short), &normalised),
        1.4,
    );
    // What a publication batch hands the kernel: about 22 % of its terms
    // carry a full-width coefficient (a base shared by many equations,
    // its weights folded), the rest a bare 128-bit weight.
    let publication: Vec<Scalar> = scalars
        .iter()
        .zip(&short)
        .enumerate()
        .map(|(i, (full, weight))| if i % 9 < 2 { *full } else { *weight })
        .collect();
    c.bench_function(&tagged("kernel/msm 8192 (publication mix)"), |b| {
        b.iter(|| Point::msm(std::hint::black_box(&publication), &normalised))
    });
    // The batch-affine reducer alone, 4096 points in slots of 8 (a
    // bucket's load), on either field arithmetic; the dispatched one is
    // the portable one without AVX-512 IFMA.
    println!("kernels: {}", cpu::backend());
    let head = &normalised[..4096];
    let reduce =
        |portable: bool| move || curve::reduce_slots(std::hint::black_box(head), 8, portable);
    c.bench_function("kernel/reducer 4096 in slots of 8 (portable)", |b| {
        b.iter(reduce(true))
    });
    c.bench_function(
        &tagged("kernel/reducer 4096 in slots of 8 (dispatched)"),
        |b| b.iter(reduce(false)),
    );
    // Where the vector backend runs it must not lose to the portable
    // path (the two are the same code, and the gate is skipped, on a CPU
    // without it).
    if !cpu::runs("avx512ifma") {
        println!("ratio gate: reducer portable / dispatched: skipped (no AVX-512 IFMA)");
    } else {
        assert_eq!(
            reduce(true)(),
            reduce(false)(),
            "the reducer's backends disagree"
        );
        ratio_gate(
            "reducer portable / dispatched",
            reduce(true),
            reduce(false),
            1.0,
        );
    }
    // Affine normalization: 256 points, shared inversion vs per-point
    // Fermat.
    let pts256: Vec<Point> = (0..256)
        .map(|_| Point::mul_generator(&Scalar::random(&mut rng)))
        .collect();
    c.bench_function("kernel/batch_to_affine 256", |b| {
        b.iter(|| Point::batch_to_affine(std::hint::black_box(&pts256)))
    });
    c.bench_function("kernel/to_affine 256 (per-point)", |b| {
        b.iter(|| {
            std::hint::black_box(&pts256)
                .iter()
                .map(Point::to_affine)
                .collect::<Vec<_>>()
        })
    });
    // Batch inversion: 256 field elements, Montgomery trick vs one
    // inversion each.
    let fps: Vec<Fp> = (0..256).map(|_| Fp::random(&mut rng)).collect();
    c.bench_function("kernel/batch_invert 256", |b| {
        b.iter_batched(
            || fps.clone(),
            |mut v| Fp::batch_invert(&mut v),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("kernel/invert 256 (per-element)", |b| {
        b.iter(|| {
            std::hint::black_box(&fps)
                .iter()
                .map(|x| x.invert())
                .collect::<Vec<_>>()
        })
    });
    // Fixed-base table vs the generic ladder for a repeated base, over
    // distinct scalars (see `cycle`).
    let base = Point::mul_generator(&Scalar::random(&mut rng));
    let table = FixedBase::new(&base);
    let ks = &scalars[..512];
    let mut next = cycle(ks);
    c.bench_function("kernel/fixed_base mul", |b| {
        b.iter(|| table.mul(std::hint::black_box(next())))
    });
    // The batched comb: the same multiplications in lockstep, affine out.
    for n in [64, 512] {
        c.bench_function(&tagged(&format!("kernel/fixed_base mul_many {n}")), |b| {
            b.iter(|| table.mul_many(std::hint::black_box(&ks[..n])))
        });
    }
    c.bench_function("kernel/fixed_base build", |b| {
        b.iter(|| FixedBase::new(std::hint::black_box(&base)))
    });
    // Mixed additions on affine entries against the generic ladder
    // (3.6× while the entries were Jacobian).
    let k = ks[0];
    ratio_gate(
        "variable-base mul / comb fixed_base mul",
        || base.mul(std::hint::black_box(&k)),
        || table.mul(std::hint::black_box(&k)),
        4.0,
    );
    // One at a time — 64 multiplications, Jacobian out — against the
    // same 64 in lockstep: what a regression of set-up to a loop over
    // `mul` would give back. Equal first.
    let one_at_a_time = || -> Vec<Point> {
        std::hint::black_box(&ks[..64])
            .iter()
            .map(|k| table.mul(k))
            .collect()
    };
    assert_eq!(table.mul_many(&ks[..64]), one_at_a_time());
    ratio_gate(
        "fixed_base mul × 64 / mul_many 64",
        one_at_a_time,
        || table.mul_many(std::hint::black_box(&ks[..64])),
        1.3,
    );
}

/// The base field's squaring and its addition-chain inversion.
fn bench_field(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(10);
    let fps: Vec<Fp> = (0..256).map(|_| Fp::random(&mut rng)).collect();
    let mut next = fps.iter().cycle();
    c.bench_function("fp/square", |b| {
        b.iter(|| std::hint::black_box(next.next().expect("a cycle")).square())
    });
    let x = fps[0];
    c.bench_function("fp/invert (chain)", |b| {
        b.iter(|| std::hint::black_box(x).invert())
    });
    // The chain against square-and-multiply over p − 2 — what `invert`
    // was, and what a regression to it would give back. Equal first.
    let p_minus_2 = Fp::MODULUS.wrapping_sub(ddemos_crypto::u256::U256::from_u64(2));
    assert_eq!(x.invert(), Some(x.pow(p_minus_2)));
    ratio_gate(
        "pow(p - 2) / Fp::invert",
        || std::hint::black_box(x).pow(p_minus_2),
        || std::hint::black_box(x).invert(),
        1.3,
    );
}

fn bench_hash_aes(c: &mut Criterion) {
    let data = vec![7u8; 1024];
    c.bench_function("sha256/1KiB", |b| {
        b.iter(|| sha256(std::hint::black_box(&data)))
    });
    // One compression on the path this CPU dispatches to, against the
    // portable one it falls back to. With the SHA extensions the
    // dispatched path must be the extension kernel, and ≥ 3× (a
    // regression to the portable code, or a detection that stops finding
    // the features, fails CI); without them there is nothing to gate.
    let block = [0x5au8; 64];
    let mut state = [0x6a09_e667u32; 8];
    c.bench_function("sha256/compress (dispatched)", |b| {
        b.iter(|| {
            sha256::compress(
                &mut state,
                std::slice::from_ref(std::hint::black_box(&block)),
            );
            state[0]
        })
    });
    let (mut a, mut b) = ([1u32; 8], [1u32; 8]);
    sha256::compress(&mut a, std::slice::from_ref(&block));
    sha256::compress_portable(&mut b, std::slice::from_ref(&block));
    assert_eq!(a, b);
    if cpu::runs("sha-ni") {
        ratio_gate(
            "sha256 compress portable / dispatched",
            || {
                sha256::compress_portable(
                    &mut a,
                    std::slice::from_ref(std::hint::black_box(&block)),
                );
                a[0]
            },
            || {
                sha256::compress(&mut b, std::slice::from_ref(std::hint::black_box(&block)));
                b[0]
            },
            3.0,
        );
    } else {
        println!("ratio gate: sha256 compress portable / dispatched: skipped (no SHA extensions)");
    }
    // Where the lanes run on AVX-512 they must beat the same blocks one
    // by one on the dispatched compression (a detection that stops
    // finding the features falls back to exactly that); elsewhere the
    // two are the same code.
    let mut states = [[0x6a09_e667u32; 8]; sha256::LANES];
    let blocks = [block; sha256::LANES];
    sha256::compress_lanes(&mut states, &blocks);
    if cpu::runs("avx512bw") {
        let mut one_by_one = states;
        ratio_gate(
            &format!("sha256 {} compressions one by one / lanes", sha256::LANES),
            || {
                for (state, block) in one_by_one.iter_mut().zip(std::hint::black_box(&blocks)) {
                    sha256::compress(state, std::slice::from_ref(block));
                }
                one_by_one[0][0]
            },
            || {
                sha256::compress_lanes(&mut states, std::hint::black_box(&blocks));
                states[0][0]
            },
            1.2,
        );
    }
    // One block into each of the lanes' chaining values in one pass (on
    // AVX-512 one word-sliced compression of sixteen chains): what a
    // `PrfRng` past its second block computes a refill at a time.
    c.bench_function(
        &tagged(&format!("sha256/compress x{} (lanes)", sha256::LANES)),
        |b| {
            b.iter(|| {
                sha256::compress_lanes(&mut states, std::hint::black_box(&blocks));
                states[0][0]
            })
        },
    );
    // An HMAC of a message of at most 55 bytes under a held key: two
    // compressions from the pads' midstates, no buffering hasher.
    let key = HmacKey::new(&[3u8; 32]);
    c.bench_function(&tagged("hmac/mac one block"), |b| {
        b.iter(|| key.mac(&[b"stream", b"rng", std::hint::black_box(&[7u8; 12])]))
    });
    // A refill's worth of a `PrfRng` stream: its next LANES 32-byte
    // blocks, each an HMAC under a held key. The stream starts past its
    // singly hashed blocks, and every call reads exactly one refill (on
    // vector lanes one `mac_blocks` pass, else LANES single MACs), so
    // every call times the same work.
    let single = 32 * PrfRng::LOOKAHEAD_FROM as usize;
    let mut stream = PrfRng::new(&Prf::new([3u8; 32]), b"bench");
    let mut refill = [0u8; 32 * sha256::LANES];
    stream.fill_bytes(&mut vec![0u8; single]);
    stream.fill_bytes(&mut refill);
    c.bench_function(&tagged(&format!("hmac/prf draw x{}", sha256::LANES)), |b| {
        b.iter(|| {
            stream.fill_bytes(&mut refill);
            refill[0]
        })
    });
    let key = [1u8; 16];
    c.bench_function("aes128-cbc/encrypt 64B", |b| {
        b.iter(|| aes::cbc_encrypt(&key, [2u8; 16], std::hint::black_box(&data[..64])))
    });
}

fn bench_schnorr(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let sk = SigningKey::generate(&mut rng);
    let sig = sk.sign(b"endorsement");
    c.bench_function("schnorr/sign", |b| {
        b.iter(|| sk.sign(std::hint::black_box(b"endorsement")))
    });
    c.bench_function("schnorr/verify", |b| {
        b.iter(|| {
            sk.verifying_key()
                .verify(b"endorsement", std::hint::black_box(&sig))
        })
    });
    // Batch verification: 64 signatures from 8 signers (the quorum-
    // duplication shape the replicas see) in one MSM vs 64 scalar checks.
    let signers: Vec<SigningKey> = (0..8).map(|_| SigningKey::generate(&mut rng)).collect();
    let msgs: Vec<Vec<u8>> = (0..64u64)
        .map(|i| format!("endorsement/{i}").into_bytes())
        .collect();
    let entries: Vec<(ddemos_crypto::schnorr::VerifyingKey, &[u8], Signature)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let sk = &signers[i % signers.len()];
            (sk.verifying_key(), m.as_slice(), sk.sign(m))
        })
        .collect();
    c.bench_function(&tagged("kernel/schnorr_verify_batch 64"), |b| {
        b.iter(|| ddemos_crypto::schnorr::verify_batch(std::hint::black_box(&entries)))
    });
    c.bench_function("kernel/schnorr_verify_scalar 64", |b| {
        b.iter(|| {
            std::hint::black_box(&entries)
                .iter()
                .all(|(vk, m, s)| vk.verify(m, s))
        })
    });
    // The cast path's burst at one collector: four VOTE_Ps, each with
    // the same three UCERT signatures and its own EA-signed share — 16
    // items, 7 distinct. `check_batch` remembers nothing, so every
    // iteration pays for the whole burst.
    let collectors = &signers[..3];
    let ea = &signers[3];
    let mut mv = ddemos_crypto::mverify::MsgVerifier::default();
    for sk in &signers[..4] {
        mv.prepare(&sk.verifying_key());
    }
    let item = |sk: &SigningKey, m: &[u8]| (sk.verifying_key(), m.to_vec(), sk.sign(m));
    let burst: Vec<_> = (0..4u8)
        .flat_map(|share| {
            collectors
                .iter()
                .map(|sk| item(sk, b"ucert"))
                .chain([item(ea, &[share; 40])])
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(mv.check_batch(&burst), vec![true; 16]);
    c.bench_function(
        &tagged("kernel/mverify burst 4×VOTE_P (3 UCERT sigs shared)"),
        |b| b.iter(|| mv.check_batch(std::hint::black_box(&burst))),
    );
    // Bursts of distinct fresh signatures from the four prepared keys,
    // off the wire: the lockstep table path (every size up to
    // `PREPARED_BATCH_MAX`) at one, four and sixteen.
    for n in [1usize, 4, 16] {
        let fresh: Vec<_> = (0..n)
            .map(|i| {
                let sk = &signers[i % 4];
                let (vk, m, sig) = item(sk, format!("fresh/{i}").as_bytes());
                (
                    vk,
                    m,
                    Signature::from_bytes(&sig.to_bytes()).expect("own encoding"),
                )
            })
            .collect();
        assert_eq!(mv.check_batch(&fresh), vec![true; n]);
        c.bench_function(&tagged(&format!("kernel/mverify burst {n} fresh")), |b| {
            b.iter(|| mv.check_batch(std::hint::black_box(&fresh)))
        });
    }
}

fn bench_sharing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let secret = Scalar::random(&mut rng);
    c.bench_function("shamir/split 3-of-4", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(4),
            |mut r| shamir::split(secret, 3, 4, &mut r).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    // Trustee sharings of EA set-up (`shamir::share_into`, as the walk
    // calls it): two coefficients drawn from a `PrfRng` stream, five
    // shares by forward differences into a flat buffer. A call is the
    // LANES / 2 sharings one refill of the stream feeds, past the singly
    // hashed blocks as for `hmac/prf draw`, so every call hashes one
    // refill.
    let per_refill = sha256::LANES / 2;
    let mut stream = PrfRng::new(&Prf::new([4u8; 32]), b"bench");
    stream.fill_bytes(&mut vec![0u8; 32 * PrfRng::LOOKAHEAD_FROM as usize]);
    let (mut coeffs, mut values) = ([Scalar::ZERO; 3], [Scalar::ZERO; 5]);
    let mut sharings = || {
        for _ in 0..per_refill {
            shamir::share_into(secret, &mut stream, &mut coeffs, &mut values);
        }
        values[4]
    };
    c.bench_function(
        &tagged(&format!("shamir/share 3-of-5 x{per_refill} (PrfRng draws)")),
        |b| b.iter(&mut sharings),
    );
    let shares = shamir::split(secret, 3, 4, &mut rng).unwrap();
    c.bench_function("shamir/reconstruct 3-of-4", |b| {
        b.iter(|| shamir::reconstruct(std::hint::black_box(&shares[..3]), 3).unwrap())
    });
    // The same reconstruction with the Lagrange weights of the index set
    // computed once (what a BB replica and a VC node hold): three
    // multiply-adds against the per-call path's weight derivation.
    let shares5 = shamir::split(secret, 3, 5, &mut rng).unwrap();
    let quorum = [shares5[0], shares5[2], shares5[4]];
    let interp = shamir::Interpolator::new(&[1, 3, 5]).unwrap();
    let precomputed = || {
        interp
            .at_zero(std::hint::black_box(&quorum).iter().map(|s| s.value))
            .unwrap()
    };
    let per_call = || shamir::reconstruct(std::hint::black_box(&quorum), 3).unwrap();
    assert_eq!(precomputed(), per_call());
    c.bench_function("kernel/shamir interpolate 3-of-5 (precomputed)", |b| {
        b.iter(precomputed)
    });
    ratio_gate(
        "shamir per-call reconstruct / precomputed interpolate",
        per_call,
        precomputed,
        10.0,
    );
    let dealer = SigningKey::generate(&mut rng);
    c.bench_function("dealer-vss/deal+sign 3-of-4", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(5),
            |mut r| vss::DealerVss::deal(&dealer, b"ctx", secret, 3, 4, &mut r).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_zkp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let (_, pk) = elgamal::keygen(&mut rng);
    let prepared = elgamal::PreparedKey::new(&pk);
    let r = Scalar::random(&mut rng);
    let ct = elgamal::encrypt_with(&pk, &Scalar::ONE, &r);
    // The prover the EA runs: prepared election key, false branch
    // simulated from the witness — five fixed-base multiplications.
    let prove = || zkp::or_prove(&prepared, 1, &r, &mut StdRng::seed_from_u64(7));
    c.bench_function("zkp/or_prove (first move)", |b| b.iter(prove));
    let p = Point::mul_generator(&r);
    // Under two variable-base multiplications — what simulating the
    // false branch alone cost from the public statement.
    ratio_gate(
        "variable-base mul / OR first move",
        || p.mul(std::hint::black_box(&r)),
        prove,
        0.5,
    );
    let (first, secrets) = zkp::or_prove(&prepared, 1, &r, &mut rng);
    let challenge = zkp::challenge_from_coins(b"bench", &[true, false]);
    let resp = secrets.respond(&challenge);
    c.bench_function("zkp/or_verify", |b| {
        b.iter(|| zkp::or_verify(&pk, &ct, &first, std::hint::black_box(&resp), &challenge))
    });
    bench_rows(c, &prepared, &challenge, &mut rng);
    // An openings batch of result publication: 2048 claims, 4098 MSM
    // terms, every `a` and `b` under its bare 128-bit weight.
    let claims: Vec<(elgamal::Ciphertext, Scalar, Scalar)> = (0..2048u64)
        .map(|i| {
            let (m, r) = (Scalar::from_u64(i % 2), Scalar::random(&mut rng));
            (prepared.encrypt_with(&m, &r), m, r)
        })
        .collect();
    assert!(elgamal::batch_verify_openings(&pk, &claims));
    c.bench_function(&tagged("kernel/batch_verify_openings 2048 claims"), |b| {
        b.iter(|| elgamal::batch_verify_openings(&pk, std::hint::black_box(&claims)))
    });
}

/// A proven row of `m` ciphertexts as the board holds it: ciphertexts, OR
/// first moves and responses, sum first move and response.
type ProvenRow = (
    Vec<elgamal::Ciphertext>,
    Vec<zkp::OrFirstMove>,
    Vec<zkp::OrResponse>,
    zkp::CpFirstMove,
    Scalar,
);

/// The row batch of result publication and the audit against the
/// per-proof loop it replaced the need for: 186 rows of m = 5, the rows of
/// one 2,048-instance batch of the per-instance verifier.
fn bench_rows(
    c: &mut Criterion,
    prepared: &elgamal::PreparedKey,
    challenge: &Scalar,
    rng: &mut StdRng,
) {
    const M: usize = 5;
    let pk = prepared.public_key();
    let rows: Vec<ProvenRow> = (0..186)
        .map(|i| {
            let (mut cts, mut firsts, mut resps, mut r_sum) =
                (vec![], vec![], vec![], Scalar::ZERO);
            for j in 0..M {
                let (bit, r) = (u8::from(j == i % M), Scalar::random(rng));
                r_sum += r;
                cts.push(prepared.encrypt_with(&Scalar::from_u64(u64::from(bit)), &r));
                let (first, secrets) = zkp::or_prove(prepared, bit, &r, rng);
                firsts.push(first);
                resps.push(secrets.respond(challenge));
            }
            let (sum_first, secrets) = zkp::sum_prove(prepared, &r_sum, rng);
            (cts, firsts, resps, sum_first, secrets.respond(challenge))
        })
        .collect();
    let proofs: Vec<zkp::RowProof<'_>> = rows
        .iter()
        .map(|(cts, or_first, or_resp, sum_first, sum_z)| zkp::RowProof {
            cts,
            or_first,
            or_resp,
            sum_first,
            sum_z: *sum_z,
            c: *challenge,
        })
        .collect();
    let per_proof = |proofs: &[zkp::RowProof<'_>]| {
        proofs.iter().all(|p| {
            let ors = p.cts.iter().zip(p.or_first).zip(p.or_resp);
            ors.into_iter()
                .all(|((ct, first), resp)| zkp::or_verify(pk, ct, first, resp, &p.c))
                && zkp::sum_verify(pk, p.cts, p.sum_first, &p.c, &p.sum_z)
        })
    };
    assert!(zkp::verify_rows(pk, &proofs) && per_proof(&proofs));
    c.bench_function(&tagged("kernel/verify_rows_batch m=5 186 rows"), |b| {
        b.iter(|| zkp::verify_rows(pk, std::hint::black_box(&proofs)))
    });
    // Over the first 48 rows, to keep the smoke run short: one MSM a batch
    // against four Shamir pairs an OR proof and two a sum proof.
    let gated = &proofs[..48];
    ratio_gate(
        "per-proof or_verify/sum_verify 48 rows / verify_rows 48 rows",
        || per_proof(std::hint::black_box(gated)),
        || zkp::verify_rows(pk, std::hint::black_box(gated)),
        4.0,
    );
}

/// The durability WAL's group-committed append path (`ddemos-storage`):
/// 1024 64-byte records per routine call on an instant `SimDisk`, so the
/// measured cost is the framing + CRC + group-commit machinery itself.
/// Batch 1 syncs every frame; batch 64 amortizes the sync. Sustained
/// throughput is `1024 / median` frames/s (the acceptance floor is 100k
/// frames/s, i.e. a median under ~10.2 ms).
fn bench_wal(c: &mut Criterion) {
    use ddemos_protocol::clock::GlobalClock;
    use ddemos_storage::{DiskProfile, SimDisk, Wal, WalConfig};
    use std::sync::Arc;

    const FRAMES: usize = 1024;
    let record = [0xA5u8; 64];
    for batch in [1usize, 64] {
        c.bench_function(
            &format!("kernel/wal_append 1024x64B (batch {batch})"),
            |b| {
                b.iter_batched(
                    || {
                        Wal::new(
                            Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant())),
                            WalConfig {
                                group_commit: batch,
                            },
                        )
                    },
                    |mut wal| {
                        for _ in 0..FRAMES {
                            wal.append(std::hint::black_box(&record)).unwrap();
                        }
                        wal.commit().unwrap();
                        wal
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

/// The canonical `Msg` wire codec — the per-message cost every frame on
/// the TCP transport path pays (encode on send, decode + CRC on
/// receive).
fn bench_msg_codec(c: &mut Criterion) {
    use ddemos_protocol::codec::{decode_envelope_frame, encode_envelope_frame};
    use ddemos_protocol::messages::{AnnounceEntry, Envelope, Msg, UCert};
    use ddemos_protocol::{NodeId, SerialNo};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(17);
    let key = SigningKey::generate(&mut rng);
    // A 64-entry ANNOUNCE with certified votes: the heaviest message the
    // vote-set-consensus path broadcasts per batch.
    let entries: Vec<AnnounceEntry> = (0..64)
        .map(|s| {
            let serial = SerialNo(s);
            let code = ddemos_crypto::votecode::VoteCode([s as u8; 20]);
            AnnounceEntry {
                serial,
                vote: Some((
                    code,
                    Arc::new(UCert {
                        serial,
                        vote_code: code,
                        sigs: (0..3).map(|i| (i, key.sign(b"bench"))).collect(),
                    }),
                )),
            }
        })
        .collect();
    let env = Envelope {
        from: NodeId::vc(0),
        to: NodeId::vc(1),
        msg: Msg::Announce {
            entries: Arc::new(entries),
        },
    };
    let frame = encode_envelope_frame(&env);
    c.bench_function("kernel/msg_codec encode announce64", |b| {
        b.iter(|| encode_envelope_frame(std::hint::black_box(&env)))
    });
    c.bench_function("kernel/msg_codec decode announce64", |b| {
        b.iter(|| decode_envelope_frame(std::hint::black_box(&frame)).unwrap())
    });
    // Both directions copy 192 stored signature encodings; encoding once
    // ran a field inversion for each (52× the decode).
    ratio_gate(
        "msg_codec decode announce64 / encode announce64",
        || decode_envelope_frame(std::hint::black_box(&frame)).unwrap(),
        || encode_envelope_frame(std::hint::black_box(&env)),
        1.0 / 3.0,
    );
}

fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench_curve, bench_kernels, bench_field, bench_hash_aes, bench_schnorr, bench_sharing, bench_zkp, bench_wal, bench_msg_codec
}
criterion_main!(benches);
