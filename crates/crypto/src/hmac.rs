//! HMAC-SHA256 (RFC 2104) and a counter-mode PRF built on it.
//!
//! The PRF backs two things in the reproduction:
//! * deterministic derivation of election secrets from the EA master seed
//!   (so setup is reproducible under a fixed seed), and
//! * the "virtual ballot store" used by the large-electorate experiment
//!   (Fig 5a), where ballots for 250 M voters are derived on demand instead
//!   of being materialized.

use crate::sha256::{self, Sha256, LANES};

const BLOCK: usize = 64;

/// The longest message whose padding still fits its one block behind the
/// key pad: 64 bytes less the `0x80` marker and the 8-byte length.
const ONE_BLOCK: usize = BLOCK - 9;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_sha256_parts(key, &[message])
}

/// Computes `HMAC-SHA256(key, m₁‖m₂‖…)` without concatenating the parts.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    HmacKey::new(key).mac(parts)
}

/// An HMAC-SHA256 key with its two pad blocks already hashed: the
/// SHA-256 midstates after `key ⊕ ipad` and after `key ⊕ opad`. A MAC of
/// a short message under a held key is two compressions instead of four —
/// which is what a PRF draw is.
#[derive(Clone, Copy, Debug)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Hashes the pads of `key` (itself hashed first when longer than a
    /// block, RFC 2104).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|k| k ^ byte));
            h.midstate()
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// `HMAC-SHA256(key, m₁‖m₂‖…)`. A message of at most 55 bytes is
    /// one padded block behind each pad, so two raw compressions from the
    /// held midstates (`mac_block`); a longer one goes through
    /// the buffering hasher.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len <= ONE_BLOCK {
            let mut block = [0u8; BLOCK];
            let mut at = 0;
            for part in parts {
                block[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            sha256::pad_last(&mut block, len, 1);
            return self.mac_block(&block);
        }
        self.mac_buffered(parts)
    }

    /// [`HmacKey::mac`] through the buffering hasher, for any length.
    fn mac_buffered(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 1);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// The MAC of the message that `block` holds padded as the one block
    /// after the inner pad ([`sha256::last_block`]`(message, 1)`).
    fn mac_block(&self, block: &[u8; 64]) -> [u8; 32] {
        let mut inner = self.inner;
        sha256::compress(&mut inner, std::slice::from_ref(block));
        let mut outer = self.outer;
        sha256::compress(&mut outer, std::slice::from_ref(&outer_block(&inner)));
        sha256::digest_bytes(&outer)
    }

    /// [`HmacKey::mac_block`] of [`LANES`] blocks at once, each pass of
    /// compressions one [`sha256::compress_lanes`].
    fn mac_blocks(&self, blocks: &[[u8; 64]; LANES]) -> [[u8; 32]; LANES] {
        let mut inner = [self.inner; LANES];
        sha256::compress_lanes(&mut inner, blocks);
        let mut outer = [self.outer; LANES];
        sha256::compress_lanes(&mut outer, &inner.map(|state| outer_block(&state)));
        outer.map(|state| sha256::digest_bytes(&state))
    }
}

/// The outer hash's one block behind the outer pad: the inner digest,
/// padded.
fn outer_block(inner: &[u32; 8]) -> [u8; 64] {
    sha256::last_block(&sha256::digest_bytes(inner), 1)
}

/// Whether two MAC tags are equal, in time independent of where they
/// differ: a `!=` on arrays may stop at the first differing byte, which
/// tells a forger how much of a guessed tag was right.
pub fn tag_eq<const N: usize>(a: &[u8; N], b: &[u8; N]) -> bool {
    let diff = a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y));
    std::hint::black_box(diff) == 0
}

/// A deterministic pseudorandom function keyed by a 32-byte seed.
///
/// Output blocks are `HMAC(seed, label ‖ index ‖ counter)`; distinct labels
/// give independent streams, so one master seed can safely derive every
/// election secret. The seed's pad blocks are hashed once, when the PRF is
/// made ([`HmacKey`]).
#[derive(Clone, Debug)]
pub struct Prf {
    seed: [u8; 32],
    key: HmacKey,
}

impl Prf {
    /// Creates a PRF from a 32-byte master seed.
    pub fn new(seed: [u8; 32]) -> Prf {
        Prf {
            seed,
            key: HmacKey::new(&seed),
        }
    }

    /// Derives a sub-PRF for a labelled domain.
    pub fn derive(&self, label: &[u8]) -> Prf {
        Prf::new(self.key.mac(&[b"derive", label]))
    }

    /// Derives a sub-PRF for a labelled, indexed domain (e.g. per ballot).
    pub fn derive_indexed(&self, label: &[u8], index: u64) -> Prf {
        Prf::new(self.key.mac(&[b"derive", label, &index.to_be_bytes()]))
    }

    /// Fills `out` with PRF output for (`label`, `index`).
    pub fn fill(&self, label: &[u8], index: u64, out: &mut [u8]) {
        for (counter, chunk) in out.chunks_mut(32).enumerate() {
            let block = self.key.mac(&[
                b"stream",
                label,
                &index.to_be_bytes(),
                &(counter as u32).to_be_bytes(),
            ]);
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
    }

    /// Returns 32 PRF bytes for (`label`, `index`).
    pub fn bytes32(&self, label: &[u8], index: u64) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill(label, index, &mut out);
        out
    }

    /// Returns a PRF-derived `u64` for (`label`, `index`).
    pub fn u64(&self, label: &[u8], index: u64) -> u64 {
        let b = self.bytes32(label, index);
        u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Exposes the raw seed (used when persisting EA state in tests).
    pub fn seed(&self) -> [u8; 32] {
        self.seed
    }
}

/// An infinite deterministic random byte stream implementing
/// [`rand::RngCore`], for protocol components that need an RNG seeded from
/// PRF material. Counter mode: byte `p` of the stream is byte `p mod 32`
/// of block `b = ⌊p / 32⌋`, which is `bytes32(b"rng", b)` of the stream's
/// PRF.
///
/// Blocks are hashed when a byte of them is first read: the first
/// [`PrfRng::LOOKAHEAD_FROM`] one at a time and, where
/// [`sha256::compress_lanes`] is one vector pass
/// ([`sha256::lanes_vectorized`]), every later one with the next
/// [`LANES`] − 1 blocks in one pass. A short stream pays for no block it
/// does not read; a long one waits on each block's compressions only
/// once per pass. Without vector lanes every block is hashed alone, since
/// a pass would cost as much as its blocks one by one.
#[derive(Clone, Debug)]
pub struct PrfRng {
    key: HmacKey,
    /// Whether blocks from [`PrfRng::LOOKAHEAD_FROM`] on are hashed
    /// [`LANES`] a refill.
    lookahead: bool,
    /// Offset of the next byte of the stream.
    position: u64,
    /// The stream bytes `buffer` holds: `window.start..window.end`.
    window: std::ops::Range<u64>,
    buffer: [u8; 32 * LANES],
}

impl PrfRng {
    /// The first block hashed with a lookahead. One pass of the lanes
    /// costs about five blocks hashed alone (measured 1.0 µs against
    /// 0.2 µs a block, AVX-512 against SHA-NI), so a stream of up to eight
    /// blocks — a ballot's lines at `m ≤ 3`, its collector salts, a row's
    /// receipt shares — pays for no pass, and a longer one pays at most
    /// about one and a half times what the cheaper of the two would have.
    pub const LOOKAHEAD_FROM: u64 = 8;

    /// Creates a deterministic RNG from a PRF domain.
    pub fn new(prf: &Prf, label: &[u8]) -> PrfRng {
        PrfRng {
            key: prf.derive(label).key,
            lookahead: sha256::lanes_vectorized(),
            position: 0,
            window: 0..0,
            buffer: [0; 32 * LANES],
        }
    }

    /// Block `index`'s message, `Prf::fill`'s for (`b"rng"`, `index`),
    /// padded.
    fn block_message(index: u64) -> [u8; 64] {
        let mut message = [0u8; 21];
        message[..9].copy_from_slice(b"streamrng");
        message[9..17].copy_from_slice(&index.to_be_bytes());
        // Bytes 17..21: the block counter of `Prf::fill`, always 0 here.
        sha256::last_block(&message, 1)
    }

    /// Hashes the block holding byte `position` (and, from
    /// [`PrfRng::LOOKAHEAD_FROM`] with the lookahead on, the [`LANES`] − 1
    /// after it) into `buffer`.
    fn refill(&mut self) {
        let first = self.position / 32;
        let held = if first < Self::LOOKAHEAD_FROM || !self.lookahead {
            let block = self.key.mac_block(&Self::block_message(first));
            self.buffer[..32].copy_from_slice(&block);
            1
        } else {
            let messages = std::array::from_fn(|l| Self::block_message(first + l as u64));
            for (chunk, block) in self
                .buffer
                .chunks_exact_mut(32)
                .zip(self.key.mac_blocks(&messages))
            {
                chunk.copy_from_slice(&block);
            }
            LANES as u64
        };
        self.window = first * 32..(first + held) * 32;
    }
}

impl rand::RngCore for PrfRng {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_be_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if !self.window.contains(&self.position) {
                self.refill();
            }
            let at = (self.position - self.window.start) as usize;
            let held = (self.window.end - self.window.start) as usize;
            let take = (held - at).min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&self.buffer[at..at + take]);
            self.position += take as u64;
            filled += take;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_long_key() {
        // Test case 6: 131-byte key (hashed key path).
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn tag_eq_compares_every_byte() {
        fn every_bit<const N: usize>() {
            let tag = [0x5au8; N];
            assert!(tag_eq(&tag, &tag));
            for byte in 0..N {
                for bit in 0..8 {
                    let mut other = tag;
                    other[byte] ^= 1 << bit;
                    assert!(!tag_eq(&tag, &other), "{N} bytes: byte {byte} bit {bit}");
                }
            }
        }
        every_bit::<16>();
        every_bit::<32>();
    }

    #[test]
    fn parts_equals_concat() {
        let a = hmac_sha256(b"key", b"hello world");
        let b = hmac_sha256_parts(b"key", &[b"hello", b" ", b"world"]);
        assert_eq!(a, b);
    }

    #[test]
    fn prf_streams_are_independent_and_deterministic() {
        let prf = Prf::new([9u8; 32]);
        assert_eq!(prf.bytes32(b"a", 0), prf.bytes32(b"a", 0));
        assert_ne!(prf.bytes32(b"a", 0), prf.bytes32(b"b", 0));
        assert_ne!(prf.bytes32(b"a", 0), prf.bytes32(b"a", 1));
        assert_ne!(prf.derive(b"x").bytes32(b"a", 0), prf.bytes32(b"a", 0));
    }

    #[test]
    fn prf_fill_is_prefix_consistent() {
        let prf = Prf::new([1u8; 32]);
        let mut long = [0u8; 100];
        prf.fill(b"s", 3, &mut long);
        let mut short = [0u8; 32];
        prf.fill(b"s", 3, &mut short);
        assert_eq!(&long[..32], &short[..]);
    }

    #[test]
    fn a_held_key_macs_message_after_message() {
        // RFC 4231 case 2, before and after another message under the
        // same held key.
        let key = HmacKey::new(b"Jefe");
        let expected = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
        assert_eq!(hex(&key.mac(&[b"what do ya want for nothing?"])), expected);
        assert_eq!(key.mac(&[&[7u8; 100]]), hmac_sha256(b"Jefe", &[7u8; 100]));
        assert_eq!(
            hex(&key.mac(&[b"what do ya want ", b"for nothing?"])),
            expected
        );
    }

    /// RFC 4231 cases 1, 2, 3 (one-block messages) and 7 (a 131-byte key
    /// and a 152-byte message) through `mac` and the buffering path, on
    /// the dispatched compression and on the portable one.
    #[test]
    fn rfc4231_vectors_on_every_path() {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for portable in [false, true] {
            crate::sha256::tests::PORTABLE.set(portable);
            for (key, message, expected) in cases {
                let key = HmacKey::new(key);
                assert_eq!(hex(&key.mac(&[message])), expected, "portable {portable}");
                assert_eq!(hex(&key.mac_buffered(&[message])), expected);
            }
            crate::sha256::tests::PORTABLE.set(false);
        }
    }

    /// The one-block path equals the buffering one for every total length
    /// 0..=130 (the one-block path takes 0..=55), however the message is
    /// split into parts.
    #[test]
    fn one_block_mac_equals_the_buffered_mac() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4231);
        let key = HmacKey::new(b"one-block");
        for len in 0..=130usize {
            let mut message = vec![0u8; len];
            rng.fill_bytes(&mut message);
            let expected = key.mac_buffered(&[&message]);
            assert_eq!(key.mac(&[&message]), expected, "{len} bytes");
            assert_eq!(hmac_sha256(b"one-block", &message), expected);
            for _ in 0..8 {
                let mut cuts: Vec<usize> = (0..rng.gen_range(0..4usize))
                    .map(|_| rng.gen_range(0..=len))
                    .collect();
                cuts.push(0);
                cuts.push(len);
                cuts.sort_unstable();
                let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &message[w[0]..w[1]]).collect();
                assert_eq!(key.mac(&parts), expected, "{len} bytes cut at {cuts:?}");
            }
        }
    }

    /// The lanes' one-block MACs in one pass are the MACs one by one.
    #[test]
    fn mac_blocks_is_mac_block_lane_by_lane() {
        let key = HmacKey::new(b"lanes");
        let bytes = [0xa5u8; ONE_BLOCK];
        let message = |l: usize| &bytes[..l * ONE_BLOCK / LANES];
        let blocks: [[u8; 64]; LANES] = std::array::from_fn(|l| sha256::last_block(message(l), 1));
        let macs = key.mac_blocks(&blocks);
        for (l, block) in blocks.iter().enumerate() {
            assert_eq!(macs[l], key.mac_block(block), "lane {l}");
            assert_eq!(macs[l], key.mac(&[message(l)]), "lane {l}");
        }
    }

    /// The stream read block by block through `Prf::fill`, the reference
    /// the lookahead must reproduce.
    fn reference_stream(prf: &Prf, label: &[u8], len: usize) -> Vec<u8> {
        let stream = prf.derive(label);
        let mut out = Vec::with_capacity(len);
        for block in 0..len.div_ceil(32) as u64 {
            out.extend_from_slice(&stream.bytes32(b"rng", block));
        }
        out.truncate(len);
        out
    }

    /// Reads of every shape — odd sizes, streams that stop inside the
    /// singly hashed blocks or just past them, reads that cross the
    /// lookahead's window — return the
    /// reference stream's bytes, with the lookahead on and off, on the
    /// dispatched compression and on the portable one.
    #[test]
    fn prf_rng_lookahead_equals_the_block_at_a_time_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let prf = Prf::new([5u8; 32]);
        let expected = reference_stream(&prf, b"lookahead", 2048);
        let mut rng = StdRng::seed_from_u64(7);
        for (portable, lookahead) in [(false, false), (false, true), (true, false), (true, true)] {
            crate::sha256::tests::PORTABLE.set(portable);
            for run in 0..300 {
                let mut stream = PrfRng::new(&prf, b"lookahead");
                stream.lookahead = lookahead;
                // Short streams first, then longer ones.
                let total = match run % 3 {
                    0 => rng.gen_range(0..=32 * PrfRng::LOOKAHEAD_FROM as usize + 32),
                    _ => rng.gen_range(0..=2048),
                };
                let mut read = Vec::with_capacity(total);
                while read.len() < total {
                    let size = match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(1..=3),
                        1 => rng.gen_range(1..=40),
                        2 => 32,
                        _ => rng.gen_range(1..=300),
                    }
                    .min(total - read.len());
                    let mut chunk = vec![0u8; size];
                    stream.fill_bytes(&mut chunk);
                    read.extend_from_slice(&chunk);
                }
                assert_eq!(
                    read,
                    expected[..total],
                    "portable {portable}, lookahead {lookahead}, run {run}"
                );
            }
            crate::sha256::tests::PORTABLE.set(false);
        }
    }

    /// A stream looks ahead only where the lanes are one vector pass:
    /// never on the portable path.
    #[test]
    fn prf_rng_looks_ahead_only_on_vector_lanes() {
        let prf = Prf::new([6u8; 32]);
        let lookahead = || PrfRng::new(&prf, b"policy").lookahead;
        assert_eq!(lookahead(), sha256::lanes_vectorized());
        crate::sha256::tests::PORTABLE.set(true);
        assert!(!lookahead());
        crate::sha256::tests::PORTABLE.set(false);
    }

    #[test]
    fn prf_rng_streams() {
        let prf = Prf::new([2u8; 32]);
        let mut rng1 = PrfRng::new(&prf, b"test");
        let mut rng2 = PrfRng::new(&prf, b"test");
        let mut rng3 = PrfRng::new(&prf, b"other");
        assert_eq!(rng1.next_u64(), rng2.next_u64());
        assert_ne!(rng1.next_u64(), rng3.next_u64());
        let mut big = vec![0u8; 1000];
        rng1.fill_bytes(&mut big);
        assert!(big.iter().any(|&b| b != 0));
    }
}
