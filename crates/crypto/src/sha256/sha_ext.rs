//! The compression on x86-64's SHA extensions (`sha256rnds2`, two rounds
//! an instruction, and `sha256msg1`/`msg2` for the message schedule), and
//! [`LANES`] compressions at once on AVX-512.

use super::{K, LANES};
use std::arch::x86_64::*;

/// [`super::compress_portable`] on the SHA extensions, the entry
/// `cpu` hands out where it found them. The rounds keep the state as the two halves `sha256rnds2` wants,
/// `ABEF` and `CDGH`, from the first block to the last; the schedule
/// keeps the last sixteen message words as four vectors of four.
///
/// # Safety
/// The CPU running it must have `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // Byte order within each 32-bit word: the block is big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w: [__m128i; 4] = std::array::from_fn(|i| {
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), bswap)
        });
        for quad in 0..16 {
            let slot = quad % 4;
            if quad >= 4 {
                // W[t..t+4] from W[t−16..t]: σ0 terms, the W[t−7]
                // terms, then σ1 terms.
                let sigma0 = _mm_sha256msg1_epu32(w[slot], w[(slot + 1) % 4]);
                let w7 = _mm_alignr_epi8::<4>(w[(slot + 3) % 4], w[(slot + 2) % 4]);
                w[slot] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w[(slot + 3) % 4]);
            }
            let wk = _mm_add_epi32(w[slot], _mm_loadu_si128(K.as_ptr().add(4 * quad).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    _mm_storeu_si128(
        state.as_mut_ptr().cast(),
        _mm_blend_epi16::<0xf0>(feba, dchg),
    );
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8::<8>(dchg, feba),
    );
}

/// [`super::compress_lanes`] on AVX-512, the entry `cpu` hands out where
/// it found it: one block into each of 16 chaining values, word-sliced.
/// Lane `l` of each of the eight state vectors and sixteen schedule
/// vectors belongs to chain `l`, so every round is FIPS 180-4's, sixteen
/// chains at a time (`vprord` for the rotations, one `vpternlogd` each
/// for the three-input XORs, `Ch` and `Maj`). The words go in by gathers
/// and out by scatters.
///
/// # Safety
/// The CPU running it must have `avx512f` and `avx512bw`.
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) unsafe fn lanes_block(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // Word offsets of lane `l`'s block and state: 16·l and 8·l.
    let block_words = _mm512_slli_epi32::<4>(lane);
    let state_words = _mm512_slli_epi32::<3>(lane);
    // Byte order within each 32-bit word: the block is big-endian.
    let bswap = _mm512_broadcast_i32x4(_mm_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
    ));
    let block_base = blocks.as_ptr().cast::<i32>();
    let mut w = [_mm512_setzero_si512(); 16];
    for (i, w) in w.iter_mut().enumerate() {
        let at = _mm512_add_epi32(block_words, _mm512_set1_epi32(i as i32));
        *w = _mm512_shuffle_epi8(_mm512_i32gather_epi32::<4>(at, block_base), bswap);
    }
    let state_base = states.as_mut_ptr().cast::<i32>();
    let mut start = [_mm512_setzero_si512(); 8];
    for (j, v) in start.iter_mut().enumerate() {
        let at = _mm512_add_epi32(state_words, _mm512_set1_epi32(j as i32));
        *v = _mm512_i32gather_epi32::<4>(at, state_base);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = start;
    for sixteen in 0..4 {
        for i in 0..16 {
            if sixteen > 0 {
                // W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16],
                // in place of W[t−16].
                let (w2, w15) = (w[(i + 14) % 16], w[(i + 1) % 16]);
                let sigma0 = _mm512_ternarylogic_epi32::<0x96>(
                    _mm512_ror_epi32::<7>(w15),
                    _mm512_ror_epi32::<18>(w15),
                    _mm512_srli_epi32::<3>(w15),
                );
                let sigma1 = _mm512_ternarylogic_epi32::<0x96>(
                    _mm512_ror_epi32::<17>(w2),
                    _mm512_ror_epi32::<19>(w2),
                    _mm512_srli_epi32::<10>(w2),
                );
                w[i] = _mm512_add_epi32(
                    _mm512_add_epi32(w[i], sigma0),
                    _mm512_add_epi32(w[(i + 9) % 16], sigma1),
                );
            }
            let kw = _mm512_add_epi32(w[i], _mm512_set1_epi32(K[16 * sixteen + i] as i32));
            let big_sigma1 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<6>(e),
                _mm512_ror_epi32::<11>(e),
                _mm512_ror_epi32::<25>(e),
            );
            // Ch(e, f, g) = e ? f : g; Maj(a, b, c) = the majority bit.
            let ch = _mm512_ternarylogic_epi32::<0xca>(e, f, g);
            let t1 =
                _mm512_add_epi32(_mm512_add_epi32(h, big_sigma1), _mm512_add_epi32(ch, kw));
            let big_sigma0 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<2>(a),
                _mm512_ror_epi32::<13>(a),
                _mm512_ror_epi32::<22>(a),
            );
            let maj = _mm512_ternarylogic_epi32::<0xe8>(a, b, c);
            h = g;
            g = f;
            f = e;
            e = _mm512_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm512_add_epi32(t1, _mm512_add_epi32(big_sigma0, maj));
        }
    }
    let end = [a, b, c, d, e, f, g, h];
    for (j, (v, s)) in end.into_iter().zip(start).enumerate() {
        let at = _mm512_add_epi32(state_words, _mm512_set1_epi32(j as i32));
        _mm512_i32scatter_epi32::<4>(state_base, at, _mm512_add_epi32(v, s));
    }
}
