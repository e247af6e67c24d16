//! HMAC-SHA256 (RFC 2104) and a counter-mode PRF built on it.
//!
//! The PRF backs two things in the reproduction:
//! * deterministic derivation of election secrets from the EA master seed
//!   (so setup is reproducible under a fixed seed), and
//! * the "virtual ballot store" used by the large-electorate experiment
//!   (Fig 5a), where ballots for 250 M voters are derived on demand instead
//!   of being materialized.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

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

    /// `HMAC-SHA256(key, m₁‖m₂‖…)`.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 1);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner.finalize());
        outer.finalize()
    }
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
/// of block `⌊p / 32⌋`, and a block is hashed when a byte of it is first
/// read — so [`PrfRng::skip`] costs nothing.
#[derive(Clone, Debug)]
pub struct PrfRng {
    prf: Prf,
    /// Offset of the next byte of the stream.
    position: u64,
    /// The block `buffer` holds, once one has been read.
    buffered: Option<u64>,
    buffer: [u8; 32],
}

impl PrfRng {
    /// Creates a deterministic RNG from a PRF domain.
    pub fn new(prf: &Prf, label: &[u8]) -> PrfRng {
        PrfRng {
            prf: prf.derive(label),
            position: 0,
            buffered: None,
            buffer: [0; 32],
        }
    }

    /// Advances the stream past `bytes` bytes nobody reads — exactly as
    /// reading and discarding them would leave it, without hashing the
    /// blocks they lie in.
    pub fn skip(&mut self, bytes: usize) {
        self.position += bytes as u64;
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
            let (block, used) = (self.position / 32, (self.position % 32) as usize);
            if self.buffered != Some(block) {
                self.buffer = self.prf.bytes32(b"rng", block);
                self.buffered = Some(block);
            }
            let take = (32 - used).min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&self.buffer[used..used + take]);
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

    #[test]
    fn skip_equals_reading_and_discarding() {
        let prf = Prf::new([3u8; 32]);
        // Every offset into a block (a 16-byte IV draw leaves the stream
        // half a block off), every length up to three blocks.
        for offset in 0..32usize {
            for n in 0..=96usize {
                let mut read = PrfRng::new(&prf, b"skip");
                let mut skipped = read.clone();
                read.fill_bytes(&mut vec![0u8; offset]);
                skipped.fill_bytes(&mut vec![0u8; offset]);
                read.fill_bytes(&mut vec![0u8; n]);
                skipped.skip(n);
                // The streams agree from here on, across a block edge.
                let (mut a, mut b) = ([0u8; 80], [0u8; 80]);
                read.fill_bytes(&mut a);
                skipped.fill_bytes(&mut b);
                assert_eq!(a, b, "offset {offset}, skip {n}");
                assert_eq!(read.next_u64(), skipped.next_u64());
            }
        }
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
