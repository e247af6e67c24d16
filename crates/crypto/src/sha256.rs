//! SHA-256 (FIPS 180-4), implemented from scratch and validated against the
//! NIST test vectors — and, on top of its midstates, the stream of
//! 128-bit weights the batch verifiers draw (`WeightStream`).
//!
//! The compression runs on the kernel [`crate::cpu`] picked for this
//! process: on an x86-64 CPU with the SHA extensions, `sha_ext`'s, which
//! runs two rounds an instruction and keeps the state in registers across
//! a run of whole blocks; everywhere else, the portable integer
//! compression, which is also the oracle the kernel is tested against.
//! Independent one-block compressions — a PRF stream's next blocks —
//! also run [`LANES`] at a time ([`compress_lanes`]), word-sliced on
//! AVX-512 where the CPU has `avx512f` and `avx512bw`. Every path gives
//! the same chaining value, so every digest, MAC, PRF stream and weight
//! is the same on any.

use crate::field::Scalar;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// The chaining value after the whole blocks absorbed so far — with
    /// their count, all there is to a hasher at a block edge
    /// ([`Sha256::resume`]).
    ///
    /// # Panics
    /// Panics if the input so far does not end on a block edge.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        assert_eq!(self.buffered, 0, "a midstate is taken at a block edge");
        self.state
    }

    /// A hasher that has absorbed `blocks` 64-byte blocks and reached
    /// the chaining value `state` ([`Sha256::midstate`]).
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Sha256 {
        Sha256 {
            state,
            buffer: [0; 64],
            buffered: 0,
            length_bits: blocks * 512,
        }
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        // The whole blocks in one call, the state held in registers
        // across them.
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        data = rest;
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, 64-bit big-endian length — in this block
        // if the length still fits behind the marker, else in one more.
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        self.compress(&block);
        digest_bytes(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress(&mut self.state, std::slice::from_ref(block));
    }
}

/// The big-endian bytes of a chaining value: the digest, once the
/// padding block has been compressed into it.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// `data` (at most 55 bytes) as the last block of a hash that has already
/// absorbed `blocks` whole blocks ([`pad_last`]).
pub(crate) fn last_block(data: &[u8], blocks: u64) -> [u8; 64] {
    let mut block = [0u8; 64];
    block[..data.len()].copy_from_slice(data);
    pad_last(&mut block, data.len(), blocks);
    block
}

/// Pads `block`, whose first `len` bytes (at most 55) end the input and
/// whose other bytes are zero, as the last block of a hash that has
/// already absorbed `blocks` whole blocks: the `0x80` marker after the
/// bytes and the 64-bit big-endian bit length of the whole input.
///
/// # Panics
/// Panics if `len` is over 55 (the length would not fit).
pub(crate) fn pad_last(block: &mut [u8; 64], len: usize, blocks: u64) {
    block[len] = 0x80;
    let bits = (blocks * 64 + len as u64) * 8;
    block[56..].copy_from_slice(&bits.to_be_bytes());
}

/// How many independent one-block compressions [`compress_lanes`] runs in
/// one pass.
pub const LANES: usize = 16;

crate::cpu::vector! {
    pub(crate) mod sha_ext;
}

/// Compresses a run of whole blocks into the chaining value `state` on
/// the kernel this process runs: the SHA extensions when the CPU has
/// them, else [`compress_portable`]. Both give the same chaining value.
/// (Public for the micro benchmark; hashing goes through [`Sha256`].)
pub fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    (crate::cpu::kernels().compress)(state, blocks)
}

/// Compresses `blocks[l]` into `states[l]` for every lane `l`: [`LANES`]
/// independent one-block compressions, each equal to
/// [`compress_portable`] of its lane. With AVX-512 they run as one
/// word-sliced compression, sixteen chains a vector (counter-mode PRF
/// blocks are independent of each other); without it, one by one on
/// [`compress`].
pub fn compress_lanes(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    (crate::cpu::kernels().compress_lanes)(states, blocks)
}

/// [`compress_lanes`] without vector lanes: the lanes one by one on
/// [`compress`].
pub(crate) fn compress_lanes_each(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    for (state, block) in states.iter_mut().zip(blocks) {
        compress(state, std::slice::from_ref(block));
    }
}

/// FIPS 180-4's compression, one block at a time in plain integer
/// arithmetic: the path of every CPU without the SHA extensions, and the
/// oracle the extension path is tested against.
pub fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// Domain tag of [`WeightStream`], padded so that tag ‖ seed is one block.
const WEIGHT_TAG: [u8; 32] = *b"ddemos/batch-weight/v2\0\0\0\0\0\0\0\0\0\0";

/// The weights of a batch verifier's random linear combination: 128-bit
/// scalars drawn from the digest of the batch transcript, two to a
/// SHA-256 compression.
///
/// The block `tag ‖ seed` is absorbed once; pair `i` is the digest of that
/// block and the 8-byte index `i`, which with its padding is one more
/// compression, read as two big-endian 128-bit halves. A weight below
/// 2¹²⁸ halves the bucket work of its MSM term ([`crate::curve::Point::msm`]
/// skips zero digits), and 128 bits is all the soundness a batch over
/// secp256k1 can use (DESIGN.md §4.2).
#[derive(Clone, Debug)]
pub(crate) struct WeightStream {
    midstate: [u32; 8],
    index: u64,
}

impl WeightStream {
    /// The stream of the transcript digest `seed`.
    pub(crate) fn new(seed: &[u8; 32]) -> WeightStream {
        let mut h = Sha256::new();
        h.update(&WEIGHT_TAG);
        h.update(seed);
        WeightStream {
            midstate: h.midstate(),
            index: 0,
        }
    }
}

/// Endless: pair after pair; `.flatten()` hands the weights out one by one.
impl Iterator for WeightStream {
    type Item = [Scalar; 2];

    fn next(&mut self) -> Option<Self::Item> {
        let mut h = Sha256::resume(self.midstate, 1);
        h.update(&self.index.to_be_bytes());
        self.index += 1;
        let digest = h.finalize();
        Some([0, 16].map(|at| {
            let half: [u8; 16] = std::array::from_fn(|j| digest[at + j]);
            Scalar::from_u128(u128::from_be_bytes(half))
        }))
    }
}

/// One-shot SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several parts.
pub fn sha256_parts(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The dispatched compression is the portable one, block by block and
    /// over runs of blocks, from random chaining values; on a CPU with the
    /// SHA extensions it is their path that is compared.
    #[test]
    fn dispatched_compression_equals_portable() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        println!("kernels: {}", crate::cpu::backend());
        let mut rng = StdRng::seed_from_u64(32);
        for run in 0..512 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let blocks: Vec<[u8; 64]> = (0..1 + run % 5)
                .map(|_| {
                    let mut block = [0u8; 64];
                    rng.fill_bytes(&mut block);
                    block
                })
                .collect();
            let (mut dispatched, mut portable) = (state, state);
            compress(&mut dispatched, &blocks);
            compress_portable(&mut portable, &blocks);
            assert_eq!(dispatched, portable, "run {run}");
            let at = rng.gen_range(0..blocks.len());
            let (mut one, mut oracle) = (state, state);
            compress(&mut one, &blocks[at..=at]);
            compress_portable(&mut oracle, &blocks[at..=at]);
            assert_eq!(one, oracle, "run {run}, block {at}");
        }
    }

    /// A hasher resumed from the midstate after whole blocks finishes the
    /// digest of the whole input.
    #[test]
    fn midstate_and_resume_continue_the_hash() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for blocks in 0..=4usize {
            let mut h = Sha256::new();
            h.update(&data[..64 * blocks]);
            let mut resumed = Sha256::resume(h.midstate(), blocks as u64);
            resumed.update(&data[64 * blocks..]);
            assert_eq!(resumed.finalize(), sha256(&data), "{blocks} blocks");
        }
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn padding_at_every_block_edge() {
        // Lengths around where the 0x80 marker and the length stop
        // fitting the last block (reference: Python's hashlib).
        let cases = [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                65,
                "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ];
        for (len, expected) in cases {
            assert_eq!(hex(&sha256(&vec![b'a'; len])), expected, "{len} bytes");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    /// Pair `i` is the plain digest of `tag ‖ seed ‖ i`, halved; every
    /// weight is below 2¹²⁸ and the two of a pair differ.
    #[test]
    fn weight_stream_is_the_halved_digest_of_each_index() {
        let seed = sha256(b"transcript");
        let pairs: Vec<[Scalar; 2]> = WeightStream::new(&seed).take(64).collect();
        for (i, [lo, hi]) in pairs.iter().enumerate() {
            let digest = sha256_parts(&[&WEIGHT_TAG, &seed, &(i as u64).to_be_bytes()]);
            let mut expected = [[0u8; 32]; 2];
            expected[0][16..].copy_from_slice(&digest[..16]);
            expected[1][16..].copy_from_slice(&digest[16..]);
            assert_eq!([lo.to_bytes(), hi.to_bytes()], expected, "pair {i}");
            for w in [lo, hi] {
                assert_eq!(w.to_u256().limbs()[2..], [0, 0], "pair {i}");
            }
            assert_ne!(lo, hi, "pair {i}");
        }
    }

    /// One bit of the seed changes every weight.
    #[test]
    fn weight_stream_follows_every_seed_bit() {
        let seed = sha256(b"transcript");
        let base: Vec<_> = WeightStream::new(&seed).take(8).flatten().collect();
        for bit in 0..256 {
            let mut flipped = seed;
            flipped[bit / 8] ^= 1 << (bit % 8);
            let other = WeightStream::new(&flipped).take(8).flatten();
            for (k, (a, b)) in base.iter().zip(other).enumerate() {
                assert_ne!(*a, b, "seed bit {bit}, weight {k}");
            }
        }
    }

    /// The lanes' kernel this process runs, and the lane-by-lane path it
    /// falls back to, are the portable compression lane by lane.
    fn lanes_match(states: [[u32; 8]; LANES], blocks: [[u8; 64]; LANES]) {
        for (path, lanes_of) in [
            ("dispatched", compress_lanes as fn(&mut _, &_)),
            ("one by one", compress_lanes_each),
        ] {
            let mut lanes = states;
            lanes_of(&mut lanes, &blocks);
            for l in 0..LANES {
                let mut oracle = states[l];
                compress_portable(&mut oracle, &blocks[l..=l]);
                assert_eq!(lanes[l], oracle, "lane {l}, {path}");
            }
        }
    }

    #[test]
    fn lanes_of_equal_states_and_blocks() {
        let block = last_block(b"abc", 0);
        lanes_match([H0; LANES], [block; LANES]);
        let mut state = H0;
        compress(&mut state, &[block]);
        assert_eq!(
            hex(&digest_bytes(&state)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    proptest! {
        #[test]
        fn prop_lanes_equal_portable(
            words in proptest::collection::vec(any::<u32>(), 8 * LANES..8 * LANES + 1),
            bytes in proptest::collection::vec(any::<u8>(), 64 * LANES..64 * LANES + 1),
        ) {
            let states = std::array::from_fn(|l| std::array::from_fn(|i| words[8 * l + i]));
            let blocks = std::array::from_fn(|l| std::array::from_fn(|i| bytes[64 * l + i]));
            lanes_match(states, blocks);
        }

        #[test]
        fn prop_incremental(data in proptest::collection::vec(any::<u8>(), 0..512),
                            split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }
    }
}
