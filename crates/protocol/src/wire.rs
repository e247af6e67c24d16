//! Deterministic binary codec.
//!
//! The simulated network passes typed messages in process, so the codec is
//! not on the transport path; it exists to give every signed or hashed
//! structure a *canonical* byte representation (signature contexts, bundle
//! hashes, BB content digests for majority comparison).

/// Errors from decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the requested field.
    UnexpectedEnd,
    /// A length prefix exceeded sanity bounds.
    BadLength,
    /// An enum tag or invariant check failed.
    BadValue,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            WireError::UnexpectedEnd => "unexpected end of input",
            WireError::BadLength => "length prefix out of bounds",
            WireError::BadValue => "invalid encoded value",
        };
        write!(f, "{msg}")
    }
}
impl std::error::Error for WireError {}

/// The slice-by-8 CRC-32 lookup tables (computed at compile time): `[0]`
/// is the classic byte-indexed table, `[k]` advances a byte's contribution
/// past `k` further bytes, so eight input bytes fold in with eight
/// independent lookups instead of a chain of eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 256;
    while i < 8 * 256 {
        let prev = tables[i / 256 - 1][i % 256];
        tables[i / 256][i % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the integrity check in
/// front of every transport frame (computed on encode and on decode) and
/// every WAL record, so a flipped bit on the wire or the disk surfaces as
/// an error instead of decoding into a different message.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let (chunks, tail) = bytes.as_chunks::<8>();
    for chunk in chunks {
        let word = u64::from_le_bytes(*chunk) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, k| {
            acc ^ CRC32_TABLES[7 - k][(word >> (8 * k)) as u8 as usize]
        });
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// An append-only canonical encoder.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with a domain-separation tag.
    pub fn tagged(tag: &str) -> Writer {
        let mut w = Writer::new();
        w.put_bytes(tag.as_bytes());
        w
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u16.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(u8::from(v))
    }

    /// Appends raw bytes with a u32 length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends fixed-size bytes without a length prefix.
    pub fn put_array(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// SHA-256 of the bytes written so far.
    pub fn digest(&self) -> [u8; 32] {
        ddemos_crypto::sha256::sha256(&self.buf)
    }
}

/// A checked decoder over a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u16.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian u32.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian u64.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a bool byte (must be 0 or 1).
    ///
    /// # Errors
    /// [`WireError::BadValue`] for other byte values.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue),
        }
    }

    /// Reads length-prefixed bytes.
    ///
    /// # Errors
    /// [`WireError::BadLength`] if the prefix exceeds the remaining input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::BadLength);
        }
        self.take(len)
    }

    /// Reads exactly `N` bytes into an array.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::tagged("test");
        w.put_u8(7)
            .put_u16(300)
            .put_u32(70_000)
            .put_u64(u64::MAX)
            .put_bool(true)
            .put_bytes(b"hello")
            .put_array(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_array::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_errors() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(r.get_u64().unwrap_err(), WireError::UnexpectedEnd);
    }

    #[test]
    fn bad_length_rejected() {
        let mut w = Writer::new();
        w.put_u32(1000); // claims 1000 bytes follow
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.get_bool().unwrap_err(), WireError::BadValue);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32/IEEE check vector pins table and polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_slices_agree_with_the_bytewise_loop() {
        // Every length across many 8-byte blocks and tails, starting at
        // every offset into the buffer, against the byte-at-a-time loop
        // the slice-by-8 kernel replaced (run incrementally: one more
        // byte a length).
        let mut state = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        for align in 0..8 {
            let mut bytewise: u32 = !0;
            for len in 0..=4096 {
                let slice = &data[align..align + len];
                assert_eq!(crc32(slice), !bytewise, "align {align}, len {len}");
                let next = u32::from(data[align + len]);
                bytewise = (bytewise >> 8) ^ CRC32_TABLES[0][((bytewise ^ next) & 0xFF) as usize];
            }
        }
    }

    #[test]
    fn digest_is_stable() {
        let mut a = Writer::new();
        a.put_u64(42);
        let mut b = Writer::new();
        b.put_u64(42);
        assert_eq!(a.digest(), b.digest());
        b.put_u8(0);
        assert_ne!(a.digest(), b.digest());
    }

    proptest! {
        #[test]
        fn prop_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..100)) {
            let mut w = Writer::new();
            w.put_bytes(&data);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(r.get_bytes().unwrap(), &data[..]);
        }
    }
}
