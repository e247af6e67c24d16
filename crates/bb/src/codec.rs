//! Canonical codec for [`BbSnapshot`] — the payload of a
//! `Msg::BbReadResponse`, so remote readers (the multi-process
//! coordinator's majority reader) receive exactly what a local
//! [`crate::BbNode::read`] returns.
//!
//! Encoding is canonical: the maps are `BTreeMap`s, so two replicas with
//! identical state produce identical bytes, and the majority comparison
//! runs on these bytes in process and across processes alike.

use crate::core::{BbSnapshot, RowOpenings, RowZkResponses};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::zkp::OrResponse;
use ddemos_protocol::codec::{
    get_scalar, get_vote_code, get_vote_set, put_scalar, put_vote_code, put_vote_set,
};
use ddemos_protocol::posts::ElectionResult;
use ddemos_protocol::wire::{Reader, WireError, Writer};
use ddemos_protocol::SerialNo;

/// Sanity bound on decoded vector lengths (mirrors the protocol codec).
const MAX_VEC: u32 = 1 << 24;

fn get_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let len = r.get_u32()?;
    if len > MAX_VEC {
        return Err(WireError::BadLength);
    }
    Ok(len as usize)
}

fn put_scalar_pairs(w: &mut Writer, pairs: &[(Scalar, Scalar)]) {
    w.put_u32(pairs.len() as u32);
    for (a, b) in pairs {
        put_scalar(w, a);
        put_scalar(w, b);
    }
}

fn get_scalar_pairs(r: &mut Reader<'_>) -> Result<Vec<(Scalar, Scalar)>, WireError> {
    let n = get_len(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((get_scalar(r)?, get_scalar(r)?));
    }
    Ok(out)
}

fn put_key(w: &mut Writer, key: &(SerialNo, u8)) {
    w.put_u64(key.0 .0).put_u8(key.1);
}

fn get_key(r: &mut Reader<'_>) -> Result<(SerialNo, u8), WireError> {
    Ok((SerialNo(r.get_u64()?), r.get_u8()?))
}

/// Encodes a snapshot.
pub fn encode_snapshot(snapshot: &BbSnapshot) -> Vec<u8> {
    let mut w = Writer::tagged("ddemos/bb-snapshot-wire/v1");
    match &snapshot.vote_set {
        Some(set) => {
            w.put_u8(1);
            put_vote_set(&mut w, set);
        }
        None => {
            w.put_u8(0);
        }
    }
    w.put_u32(snapshot.decrypted_codes.len() as u32);
    for (key, codes) in &snapshot.decrypted_codes {
        put_key(&mut w, key);
        w.put_u32(codes.len() as u32);
        for code in codes {
            put_vote_code(&mut w, code);
        }
    }
    w.put_u32(snapshot.openings.len() as u32);
    for (key, rows) in &snapshot.openings {
        put_key(&mut w, key);
        w.put_u32(rows.len() as u32);
        for row in rows {
            put_scalar_pairs(&mut w, row);
        }
    }
    w.put_u32(snapshot.zk_responses.len() as u32);
    for (key, rows) in &snapshot.zk_responses {
        put_key(&mut w, key);
        w.put_u32(rows.len() as u32);
        for (responses, sum) in rows {
            w.put_u32(responses.len() as u32);
            for resp in responses {
                put_scalar(&mut w, &resp.c0);
                put_scalar(&mut w, &resp.c1);
                put_scalar(&mut w, &resp.z0);
                put_scalar(&mut w, &resp.z1);
            }
            put_scalar(&mut w, sum);
        }
    }
    match &snapshot.challenge {
        Some(c) => {
            w.put_u8(1);
            put_scalar(&mut w, c);
        }
        None => {
            w.put_u8(0);
        }
    }
    match &snapshot.tally_opening {
        Some(opening) => {
            w.put_u8(1);
            put_scalar_pairs(&mut w, opening);
        }
        None => {
            w.put_u8(0);
        }
    }
    match &snapshot.result {
        Some(result) => {
            w.put_u8(1).put_u32(result.tally.len() as u32);
            for v in &result.tally {
                w.put_u64(*v);
            }
            w.put_u64(result.ballots_counted);
        }
        None => {
            w.put_u8(0);
        }
    }
    w.into_bytes()
}

fn get_flag(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::BadValue),
    }
}

/// Decodes a snapshot produced by [`encode_snapshot`].
///
/// # Errors
/// [`WireError`] on malformed bytes — never a panic (this is what a
/// Byzantine replica's read response goes through before the majority
/// comparison).
pub fn decode_snapshot(bytes: &[u8]) -> Result<BbSnapshot, WireError> {
    let mut r = Reader::new(bytes);
    if r.get_bytes()? != b"ddemos/bb-snapshot-wire/v1" {
        return Err(WireError::BadValue);
    }
    let mut snapshot = BbSnapshot::default();
    if get_flag(&mut r)? {
        snapshot.vote_set = Some(get_vote_set(&mut r)?);
    }
    let n = get_len(&mut r)?;
    for _ in 0..n {
        let key = get_key(&mut r)?;
        let count = get_len(&mut r)?;
        let mut codes = Vec::with_capacity(count);
        for _ in 0..count {
            codes.push(get_vote_code(&mut r)?);
        }
        snapshot.decrypted_codes.insert(key, codes);
    }
    let n = get_len(&mut r)?;
    for _ in 0..n {
        let key = get_key(&mut r)?;
        let count = get_len(&mut r)?;
        let mut rows: RowOpenings = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(get_scalar_pairs(&mut r)?);
        }
        snapshot.openings.insert(key, rows);
    }
    let n = get_len(&mut r)?;
    for _ in 0..n {
        let key = get_key(&mut r)?;
        let count = get_len(&mut r)?;
        let mut rows: RowZkResponses = Vec::with_capacity(count);
        for _ in 0..count {
            let resp_count = get_len(&mut r)?;
            let mut responses = Vec::with_capacity(resp_count);
            for _ in 0..resp_count {
                responses.push(OrResponse {
                    c0: get_scalar(&mut r)?,
                    c1: get_scalar(&mut r)?,
                    z0: get_scalar(&mut r)?,
                    z1: get_scalar(&mut r)?,
                });
            }
            let sum = get_scalar(&mut r)?;
            rows.push((responses, sum));
        }
        snapshot.zk_responses.insert(key, rows);
    }
    if get_flag(&mut r)? {
        snapshot.challenge = Some(get_scalar(&mut r)?);
    }
    if get_flag(&mut r)? {
        snapshot.tally_opening = Some(get_scalar_pairs(&mut r)?);
    }
    if get_flag(&mut r)? {
        let count = get_len(&mut r)?;
        let mut tally = Vec::with_capacity(count);
        for _ in 0..count {
            tally.push(r.get_u64()?);
        }
        snapshot.result = Some(ElectionResult {
            tally,
            ballots_counted: r.get_u64()?,
        });
    }
    if r.remaining() != 0 {
        return Err(WireError::BadValue);
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::votecode::VoteCode;
    use std::collections::BTreeMap;

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = BbSnapshot::default();
        let bytes = encode_snapshot(&snap);
        let got = decode_snapshot(&bytes).unwrap();
        assert_eq!(encode_snapshot(&got), bytes);
        assert!(got.vote_set.is_none() && got.result.is_none());
    }

    #[test]
    fn populated_snapshot_roundtrips_digest_identical() {
        let mut snap = BbSnapshot::default();
        let mut set = ddemos_protocol::posts::VoteSet::default();
        set.entries.insert(SerialNo(3), VoteCode([9; 20]));
        snap.vote_set = Some(set);
        let mut codes = BTreeMap::new();
        codes.insert(
            (SerialNo(3), 0u8),
            vec![VoteCode([1; 20]), VoteCode([2; 20])],
        );
        snap.decrypted_codes = codes;
        snap.result = Some(ElectionResult {
            tally: vec![1, 2, 0],
            ballots_counted: 3,
        });
        let bytes = encode_snapshot(&snap);
        let got = decode_snapshot(&bytes).unwrap();
        assert_eq!(encode_snapshot(&got), bytes);
        assert_eq!(got.result.unwrap().tally, vec![1, 2, 0]);
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let snap = BbSnapshot::default();
        let bytes = encode_snapshot(&snap);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_snapshot(&extended).is_err());
    }
}
