//! The EA's deal of a Bulletin Board replica's initialization data
//! ([`BbInit`]) to a replica in another process (§III-D): the EA computes
//! the data once and hands it out, so no replica re-derives it.
//!
//! Everything a [`BbInit`] holds is public, and its size grows with the
//! electorate (about 400 KB at 108 ballots and m = 2, about 20 MB at 1,000
//! ballots and m = 5), so [`deal_chunks`] cuts it into chunks that each
//! fit one transport frame: a *header* chunk (parameters, the `msk`
//! commitment and every public key) and *ballot* chunks, each carrying
//! the ballots of one serial range. A replica joins them with a
//! [`BbInitAssembler`], which takes the header first, then ranges that are
//! disjoint and cover `0..num_ballots` exactly, and refuses anything else
//! with a [`WireError`], never a panic.
//!
//! Points travel uncompressed ([`Affine::uncompressed`]): a chunk's points
//! are normalised with one shared inversion (the EA's are affine already,
//! so it costs none), and the replica checks each against the curve
//! equation with no square root: under a millisecond for the 6,048
//! points of a 108-ballot, m = 2 board, where decompressing them takes
//! over 20.
//!
//! A row's shape is the header's: `m` rows a part, and per row its
//! encrypted vote code, then `m` ciphertexts (2 points each), `m` OR-proof
//! first moves (4 points each) and the sum-proof first move (2 points).

use crate::codec::{get_params, put_params};
use crate::ids::SerialNo;
use crate::initdata::{BbBallot, BbInit, BbRow};
use crate::params::ElectionParams;
use crate::wire::{Reader, WireError, Writer};
use ddemos_crypto::curve::{Affine, Point};
use ddemos_crypto::elgamal::{Ciphertext, PublicKey};
use ddemos_crypto::schnorr::VerifyingKey;
use ddemos_crypto::votecode::MskCommitment;
use ddemos_crypto::zkp::{CpFirstMove, OrFirstMove};
use std::collections::BTreeMap;
use std::sync::Arc;

const CHUNK_HEADER: u8 = 1;
const CHUNK_BALLOTS: u8 = 2;

/// Bytes of one uncompressed point.
const POINT_BYTES: usize = 65;

/// Bytes a ballot chunk spends before its first ballot: the tag, the
/// first serial and the count.
const BALLOTS_PREFIX: usize = 1 + 8 + 4;

/// Points of one row of an `m`-option election.
fn row_points(m: usize) -> usize {
    6 * m + 2
}

/// A row's points in wire order.
fn points_of(row: &BbRow) -> impl Iterator<Item = Point> + '_ {
    let cts = row.commitment.iter().flat_map(|ct| [ct.a, ct.b]);
    let ors = row
        .or_first
        .iter()
        .flat_map(|or| [or.branch0.t1, or.branch0.t2, or.branch1.t1, or.branch1.t2]);
    cts.chain(ors).chain([row.sum_first.t1, row.sum_first.t2])
}

/// Encoded bytes of one ballot.
fn ballot_len(ballot: &BbBallot, m: usize) -> usize {
    let rows = ballot.parts.iter().flatten();
    rows.map(|row| 4 + row.enc_code.len() + row_points(m) * POINT_BYTES)
        .sum()
}

/// Writes `points` uncompressed, normalised with one shared inversion.
fn put_points(w: &mut Writer, points: &[Point]) {
    for affine in Point::batch_normalize(points) {
        w.put_array(&affine.uncompressed());
    }
}

fn get_point(r: &mut Reader<'_>) -> Result<Point, WireError> {
    Point::from_uncompressed(&r.get_array()?).ok_or(WireError::BadValue)
}

fn get_key(r: &mut Reader<'_>) -> Result<VerifyingKey, WireError> {
    get_point(r).map(VerifyingKey::from_point)
}

fn get_keys(r: &mut Reader<'_>, n: usize) -> Result<Vec<VerifyingKey>, WireError> {
    if r.get_u32()? as usize != n {
        return Err(WireError::BadValue);
    }
    get_n(n, || get_key(r))
}

/// `n` values read by `get`, in a vector of exactly that capacity (a
/// fallible `collect` cannot size its vector up front, and a replica holds
/// its board's small vectors, three a row, for the whole election). `n`
/// comes from the replica's own parameters, never from the chunk.
fn get_n<T>(n: usize, mut get: impl FnMut() -> Result<T, WireError>) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get()?);
    }
    Ok(out)
}

fn header_chunk(init: &BbInit) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(CHUNK_HEADER);
    put_params(&mut w, &init.params);
    w.put_array(&init.msk_commitment.hash)
        .put_u64(init.msk_commitment.salt);
    put_points(&mut w, &[init.elgamal_pk.0, init.ea_key.point()]);
    for keys in [&init.vc_keys, &init.trustee_keys] {
        let points: Vec<Point> = keys.iter().map(VerifyingKey::point).collect();
        w.put_u32(points.len() as u32);
        put_points(&mut w, &points);
    }
    w.into_bytes()
}

/// One ballot chunk: the ballots of `first..first + ballots.len()`, their
/// points normalised together.
fn ballots_chunk(first: u64, ballots: &[&BbBallot]) -> Vec<u8> {
    let rows = || ballots.iter().flat_map(|b| b.parts.iter().flatten());
    let points: Vec<Point> = rows().flat_map(points_of).collect();
    let mut encoded = Point::batch_normalize(&points)
        .into_iter()
        .map(Affine::uncompressed);
    let mut w = Writer::new();
    w.put_u8(CHUNK_BALLOTS)
        .put_u64(first)
        .put_u32(ballots.len() as u32);
    for row in rows() {
        w.put_bytes(&row.enc_code);
        for point in encoded.by_ref().take(points_of(row).count()) {
            w.put_array(&point);
        }
    }
    w.into_bytes()
}

/// Whether `init` has the shape the wire format assumes: ballots keyed
/// `0..num_ballots`, `m` rows a part and `m` ciphertexts and first moves a
/// row.
fn well_shaped(init: &BbInit) -> bool {
    let m = init.params.num_options;
    let rows_ok = |rows: &Vec<BbRow>| {
        rows.len() == m
            && rows
                .iter()
                .all(|row| row.commitment.len() == m && row.or_first.len() == m)
    };
    init.ballots.len() as u64 == init.params.num_ballots
        && init
            .ballots
            .iter()
            .zip(0..)
            .all(|((serial, ballot), expected)| {
                serial.0 == expected && ballot.parts.iter().all(rows_ok)
            })
}

/// Cuts `init` into the chunks of its deal, each at most `max_chunk`
/// bytes: the header, then the ballots in serial order, as many a chunk
/// as fit.
///
/// # Errors
/// [`WireError::BadValue`] if `init` is not shaped as its parameters say
/// (every ballot keyed `0..num_ballots`, `m × m` rows a part);
/// [`WireError::BadLength`] if the header or one ballot alone does not
/// fit `max_chunk`.
pub fn deal_chunks(init: &BbInit, max_chunk: usize) -> Result<Vec<Vec<u8>>, WireError> {
    if !well_shaped(init) {
        return Err(WireError::BadValue);
    }
    let header = header_chunk(init);
    if header.len() > max_chunk {
        return Err(WireError::BadLength);
    }
    let budget = max_chunk.saturating_sub(BALLOTS_PREFIX);
    let m = init.params.num_options;
    let mut chunks = vec![header];
    let mut run: Vec<&BbBallot> = Vec::new();
    let (mut first, mut bytes) = (0u64, 0usize);
    for (serial, ballot) in init.ballots.iter() {
        let len = ballot_len(ballot, m);
        if len > budget {
            return Err(WireError::BadLength);
        }
        if bytes + len > budget {
            chunks.push(ballots_chunk(first, &run));
            run.clear();
            (first, bytes) = (serial.0, 0);
        }
        run.push(ballot);
        bytes += len;
    }
    if !run.is_empty() {
        chunks.push(ballots_chunk(first, &run));
    }
    Ok(chunks)
}

/// Joins a replica's dealt chunks into its [`BbInit`], checking each as
/// it comes. A refused chunk leaves the assembler as it was.
#[derive(Debug)]
pub struct BbInitAssembler {
    /// The replica's own parameters: the header must carry these.
    params: ElectionParams,
    /// The header's fields, with no ballots yet.
    header: Option<BbInit>,
    ballots: BTreeMap<SerialNo, BbBallot>,
}

impl BbInitAssembler {
    /// An assembler for a replica of the election `params`.
    pub fn new(params: ElectionParams) -> BbInitAssembler {
        BbInitAssembler {
            params,
            header: None,
            ballots: BTreeMap::new(),
        }
    }

    /// Takes one chunk of the deal.
    ///
    /// # Errors
    /// [`WireError`] for a truncated or over-long chunk, a point off the
    /// curve, a header that repeats or whose parameters or key counts
    /// differ from the replica's, ballots before the header, and a serial
    /// range that is empty, overlaps one already taken or reaches past
    /// `num_ballots`.
    pub fn take(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(chunk);
        match r.get_u8()? {
            CHUNK_HEADER if self.header.is_none() => {
                let header = self.get_header(&mut r)?;
                finished(&r)?;
                self.header = Some(header);
            }
            CHUNK_BALLOTS if self.header.is_some() => {
                let first = r.get_u64()?;
                let count = u64::from(r.get_u32()?);
                let end = first.checked_add(count).ok_or(WireError::BadValue)?;
                let taken = self.ballots.range(SerialNo(first)..SerialNo(end)).next();
                if count == 0 || end > self.params.num_ballots || taken.is_some() {
                    return Err(WireError::BadValue);
                }
                let m = self.params.num_options;
                let ballots = (first..end)
                    .map(|serial| Ok((SerialNo(serial), get_ballot(&mut r, m)?)))
                    .collect::<Result<Vec<_>, WireError>>()?;
                finished(&r)?;
                self.ballots.extend(ballots);
            }
            _ => return Err(WireError::BadValue),
        }
        Ok(())
    }

    fn get_header(&self, r: &mut Reader<'_>) -> Result<BbInit, WireError> {
        if get_params(r)? != self.params {
            return Err(WireError::BadValue);
        }
        let msk_commitment = MskCommitment {
            hash: r.get_array()?,
            salt: r.get_u64()?,
        };
        Ok(BbInit {
            params: self.params.clone(),
            msk_commitment,
            elgamal_pk: PublicKey(get_point(r)?),
            ea_key: get_key(r)?,
            vc_keys: get_keys(r, self.params.num_vc)?,
            trustee_keys: get_keys(r, self.params.num_trustees)?,
            ballots: Arc::default(),
        })
    }

    /// Whether the header and every ballot have been taken.
    pub fn is_complete(&self) -> bool {
        self.header.is_some() && self.ballots.len() as u64 == self.params.num_ballots
    }

    /// The dealt initialization data, once [complete](Self::is_complete).
    pub fn into_init(self) -> Option<BbInit> {
        let complete = self.is_complete();
        let mut init = self.header.filter(|_| complete)?;
        init.ballots = Arc::new(self.ballots);
        Some(init)
    }
}

/// A chunk must end where its content does.
fn finished(r: &Reader<'_>) -> Result<(), WireError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(WireError::BadValue)
    }
}

fn get_ballot(r: &mut Reader<'_>, m: usize) -> Result<BbBallot, WireError> {
    let mut part = || get_n(m, || get_row(r, m));
    Ok(BbBallot {
        parts: [part()?, part()?],
    })
}

fn get_row(r: &mut Reader<'_>, m: usize) -> Result<BbRow, WireError> {
    let enc_code = r.get_bytes()?.to_vec();
    let mut pair = || -> Result<[Point; 2], WireError> { Ok([get_point(r)?, get_point(r)?]) };
    let commitment = get_n(m, || pair().map(|[a, b]| Ciphertext { a, b }))?;
    let mut cp = || pair().map(|[t1, t2]| CpFirstMove { t1, t2 });
    let or_first = get_n(m, || {
        Ok(OrFirstMove {
            branch0: cp()?,
            branch1: cp()?,
        })
    })?;
    Ok(BbRow {
        enc_code,
        commitment,
        or_first,
        sum_first: cp()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::field::Scalar;

    const BALLOTS: u64 = 3;

    fn params() -> ElectionParams {
        ElectionParams::new("deal", BALLOTS, 2, 4, 3, 5, 3, 0, 1000).unwrap()
    }

    /// A board of distinct multiples of the generator, shaped as
    /// `params()` says.
    fn board() -> BbInit {
        let params = params();
        let mut k = 0u64;
        let mut point = || {
            k += 1;
            Point::mul_generator(&Scalar::from_u64(k))
        };
        let mut cp = || CpFirstMove {
            t1: point(),
            t2: point(),
        };
        let m = params.num_options;
        let mut row = |i: u8| BbRow {
            enc_code: vec![i; 48],
            commitment: (0..m)
                .map(|_| {
                    let CpFirstMove { t1, t2 } = cp();
                    Ciphertext { a: t1, b: t2 }
                })
                .collect(),
            or_first: (0..m)
                .map(|_| OrFirstMove {
                    branch0: cp(),
                    branch1: cp(),
                })
                .collect(),
            sum_first: cp(),
        };
        let ballots = (0..BALLOTS)
            .map(|s| {
                let parts = [0, 1].map(|p| {
                    (0..m)
                        .map(|r| row((s * 4 + p * 2 + r as u64) as u8))
                        .collect()
                });
                (SerialNo(s), BbBallot { parts })
            })
            .collect();
        let key =
            |k: u64| VerifyingKey::from_point(Point::mul_generator(&Scalar::from_u64(1000 + k)));
        BbInit {
            msk_commitment: MskCommitment {
                hash: [9; 32],
                salt: 77,
            },
            elgamal_pk: PublicKey(Point::mul_generator(&Scalar::from_u64(999))),
            ea_key: key(0),
            vc_keys: (1..=params.num_vc as u64).map(key).collect(),
            trustee_keys: (10..10 + params.num_trustees as u64).map(key).collect(),
            ballots: Arc::new(ballots),
            params,
        }
    }

    /// The deal of `board()` with one ballot a chunk.
    fn one_ballot_chunks() -> Vec<Vec<u8>> {
        let init = board();
        let whole = deal_chunks(&init, usize::MAX).unwrap();
        let chunks = deal_chunks(&init, whole[1].len() / 2).unwrap();
        assert_eq!(chunks.len(), 1 + BALLOTS as usize);
        chunks
    }

    fn assembler_with_header(chunks: &[Vec<u8>]) -> BbInitAssembler {
        let mut assembler = BbInitAssembler::new(params());
        assembler.take(&chunks[0]).unwrap();
        assembler
    }

    /// A ballot chunk's first serial, rewritten.
    fn starting_at(chunk: &[u8], first: u64) -> Vec<u8> {
        let mut chunk = chunk.to_vec();
        chunk[1..9].copy_from_slice(&first.to_be_bytes());
        chunk
    }

    /// The SHA-256 of every chunk of `board()`, with an identity point in
    /// it, dealt one ballot a chunk: the wire bytes of a deal must not
    /// move.
    #[test]
    fn chunk_bytes_are_pinned() {
        let mut init = board();
        let mut ballots = (*init.ballots).clone();
        if let Some(ballot) = ballots.get_mut(&SerialNo(1)) {
            ballot.parts[1][0].sum_first.t2 = Point::IDENTITY;
        }
        init.ballots = Arc::new(ballots);
        let whole = deal_chunks(&init, usize::MAX).unwrap();
        let chunks = deal_chunks(&init, whole[1].len() / 2).unwrap();
        let digests: Vec<String> = chunks
            .iter()
            .map(|chunk| {
                let digest = ddemos_crypto::sha256::sha256(chunk);
                digest.iter().map(|b| format!("{b:02x}")).collect()
            })
            .collect();
        assert_eq!(
            digests,
            [
                "72c23c772d453a4dedd697081e61f8b8ab459c2c8f9cce6e3bd3e1f9862204a9",
                "cda757048a115ea535ee7e8cbea33b482d2a4eea2bb45f562eb4ffdd1c004bf1",
                "1b938dab1f914a3c8e0f6fce346143da3fb7819bb48ecd4072ea1c583f2867e7",
                "b2b0208b8fb8b9c725383a5c56ca31886d97edc313d48d8eef70c041c753b8b2",
            ]
        );
    }

    #[test]
    fn chunks_fit_their_cap_and_assemble_in_any_range_order() {
        let init = board();
        for cap in [usize::MAX, 20_000, 9_000] {
            let chunks = deal_chunks(&init, cap).unwrap();
            assert!(chunks.iter().all(|c| c.len() <= cap), "cap {cap}");
            let mut assembler = BbInitAssembler::new(params());
            assembler.take(&chunks[0]).unwrap();
            for chunk in chunks[1..].iter().rev() {
                assert!(!assembler.is_complete());
                assembler.take(chunk).unwrap();
            }
            let dealt = assembler.into_init().unwrap();
            assert_eq!(dealt.ballots, init.ballots);
            // Held for the whole election: no vector keeps spare room.
            for part in dealt.ballots.values().flat_map(|b| &b.parts) {
                assert_eq!(part.capacity(), part.len());
                for row in part {
                    assert_eq!(row.commitment.capacity(), row.commitment.len());
                    assert_eq!(row.or_first.capacity(), row.or_first.len());
                }
            }
            assert_eq!(
                (
                    dealt.elgamal_pk,
                    dealt.ea_key,
                    &dealt.vc_keys,
                    &dealt.trustee_keys
                ),
                (
                    init.elgamal_pk,
                    init.ea_key,
                    &init.vc_keys,
                    &init.trustee_keys
                )
            );
            assert_eq!(dealt.msk_commitment, init.msk_commitment);
        }
        // A cap that no ballot fits, and one the header does not fit.
        let ballot = one_ballot_chunks()[1].len();
        assert_eq!(deal_chunks(&init, ballot - 1), Err(WireError::BadLength));
        assert_eq!(deal_chunks(&init, 100), Err(WireError::BadLength));
    }

    #[test]
    fn a_board_of_another_shape_is_not_dealt() {
        let mut init = board();
        let mut ballots = (*init.ballots).clone();
        ballots.remove(&SerialNo(1));
        init.ballots = Arc::new(ballots.clone());
        assert_eq!(deal_chunks(&init, usize::MAX), Err(WireError::BadValue));
        let mut short = ballots.remove(&SerialNo(0)).unwrap();
        short.parts[0].pop();
        ballots.insert(SerialNo(0), short);
        init.ballots = Arc::new(ballots);
        assert_eq!(deal_chunks(&init, usize::MAX), Err(WireError::BadValue));
    }

    #[test]
    fn truncated_or_padded_chunks_are_refused_and_change_nothing() {
        let chunks = one_ballot_chunks();
        for (i, chunk) in chunks.iter().enumerate() {
            let mut assembler = if i == 0 {
                BbInitAssembler::new(params())
            } else {
                assembler_with_header(&chunks)
            };
            for cut in [0, 1, 9, chunk.len() / 2, chunk.len() - 1] {
                assert!(
                    assembler.take(&chunk[..cut]).is_err(),
                    "chunk {i}, cut {cut}"
                );
            }
            let mut padded = chunk.clone();
            padded.push(0);
            assert_eq!(assembler.take(&padded), Err(WireError::BadValue));
            // The intact chunk is still taken.
            assembler.take(chunk).unwrap();
        }
    }

    #[test]
    fn an_off_curve_point_is_refused() {
        let chunks = one_ballot_chunks();
        let mut assembler = assembler_with_header(&chunks);
        let mut bad = chunks[1].clone();
        // The last byte of the sum proof's last point: its y.
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(assembler.take(&bad), Err(WireError::BadValue));
        let mut header = chunks[0].clone();
        *header.last_mut().unwrap() ^= 1;
        let mut fresh = BbInitAssembler::new(params());
        assert_eq!(fresh.take(&header), Err(WireError::BadValue));
        assert!(!fresh.is_complete());
    }

    #[test]
    fn ranges_must_be_disjoint_and_within_the_election() {
        let chunks = one_ballot_chunks();
        let mut assembler = assembler_with_header(&chunks);
        assembler.take(&chunks[2]).unwrap();
        // The same range again, and serial 1's ballot claimed for 0..1 is
        // fine but not twice.
        assert_eq!(assembler.take(&chunks[2]), Err(WireError::BadValue));
        assembler.take(&starting_at(&chunks[2], 0)).unwrap();
        assert_eq!(
            assembler.take(&starting_at(&chunks[3], 0)),
            Err(WireError::BadValue)
        );
        // Past the last serial, and wrapping around.
        assert_eq!(
            assembler.take(&starting_at(&chunks[3], BALLOTS)),
            Err(WireError::BadValue)
        );
        assert_eq!(
            assembler.take(&starting_at(&chunks[3], u64::MAX)),
            Err(WireError::BadValue)
        );
        // An empty range.
        let mut empty = starting_at(&chunks[3], 2)[..13].to_vec();
        empty[9..13].copy_from_slice(&0u32.to_be_bytes());
        assert_eq!(assembler.take(&empty), Err(WireError::BadValue));
        assert!(!assembler.is_complete());
        assembler.take(&chunks[3]).unwrap();
        assert!(assembler.is_complete());
    }

    #[test]
    fn the_header_comes_first_once_and_for_this_election() {
        let chunks = one_ballot_chunks();
        let mut assembler = BbInitAssembler::new(params());
        assert_eq!(assembler.take(&chunks[1]), Err(WireError::BadValue));
        assert_eq!(assembler.take(&[]), Err(WireError::UnexpectedEnd));
        assert_eq!(assembler.take(&[9]), Err(WireError::BadValue));
        let other = ElectionParams::new("deal", BALLOTS, 2, 4, 3, 5, 2, 0, 1000).unwrap();
        let mut stranger = BbInitAssembler::new(other);
        assert_eq!(stranger.take(&chunks[0]), Err(WireError::BadValue));
        assembler.take(&chunks[0]).unwrap();
        assert_eq!(assembler.take(&chunks[0]), Err(WireError::BadValue));
        assert!(assembler.into_init().is_none(), "no ballot was dealt");
    }

    use proptest::prelude::*;

    proptest! {
        /// Whatever a chunk's bytes, taking it never panics: a flipped
        /// byte anywhere in a valid chunk, or junk after a valid header.
        #[test]
        fn prop_corrupt_chunks_never_panic(
            index in 0usize..4,
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
            junk in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let chunks = one_ballot_chunks();
            let chunk = &chunks[index];
            let mut corrupted = chunk.clone();
            corrupted[(pos_seed % chunk.len() as u64) as usize] ^= flip;
            let mut assembler = if index == 0 {
                BbInitAssembler::new(params())
            } else {
                assembler_with_header(&chunks)
            };
            let _ = assembler.take(&corrupted);
            let _ = assembler.take(&junk);
            let mut tagged = vec![CHUNK_BALLOTS];
            tagged.extend_from_slice(&junk);
            let _ = assembler.take(&tagged);
        }
    }
}
