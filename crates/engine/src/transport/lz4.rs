//! A vendored LZ4 block codec for state-migration payloads.
//!
//! Migration `Install` state blobs and checkpoint payloads dominate wire
//! traffic during reconfiguration; keyed operator state is typically
//! highly repetitive (serialized maps of similar tuples), so even a
//! greedy byte-oriented LZ4 pass buys a large reduction. The dependency
//! policy is offline-only, so this is a from-scratch implementation of
//! the LZ4 *block* format (not the frame format): a sequence of tokens,
//! each a literal run followed by a match copy against the already
//! decoded output.
//!
//! The compressor is a greedy single-pass hash-table matcher — small and
//! predictable rather than ratio-optimal. The decompressor is the part
//! that faces the network and is therefore strictly bounds-checked and
//! fail-closed: any malformed input yields a [`DecodeError`], never a
//! panic or an attacker-sized allocation (the caller supplies the
//! expected raw length up front and it is validated against
//! [`MAX_FRAME_LEN`](super::wire::MAX_FRAME_LEN) at decode time).

use crate::codec::{DecodeError, Found};

/// Matches shorter than this are not worth a token.
const MIN_MATCH: usize = 4;
/// The format requires the last 5 bytes of a block to be literals and
/// the last match to start at least 12 bytes before the end.
const LAST_LITERALS: usize = 5;
const MATCH_SAFEGUARD: usize = 12;
/// Window the format can address with its 16-bit match offsets.
const MAX_OFFSET: usize = 0xFFFF;

const HASH_BITS: u32 = 13;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn put_len(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Compress `src` into a fresh LZ4 block. Always succeeds; the output
/// may be larger than the input for incompressible data (callers keep
/// the raw bytes in that case).
pub(crate) fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.is_empty() {
        return out;
    }
    if src.len() < MATCH_SAFEGUARD {
        // Too short for any match to be legal: one all-literal token.
        emit(&mut out, src, 0, 0);
        return out;
    }
    let mut table = [0usize; 1 << HASH_BITS]; // position + 1; 0 = empty
    let match_limit = src.len() - MATCH_SAFEGUARD;
    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos <= match_limit {
        let h = hash4(&src[pos..]);
        let cand = table[h];
        table[h] = pos + 1;
        let cand = match cand.checked_sub(1) {
            Some(c) if pos - c <= MAX_OFFSET && src[c..c + 4] == src[pos..pos + 4] => c,
            _ => {
                pos += 1;
                continue;
            }
        };
        // Extend the match forward, but leave the tail-literal margin.
        let mut mlen = MIN_MATCH;
        let hard_end = src.len() - LAST_LITERALS;
        while pos + mlen < hard_end && src[cand + mlen] == src[pos + mlen] {
            mlen += 1;
        }
        emit(&mut out, &src[anchor..pos], pos - cand, mlen);
        pos += mlen;
        anchor = pos;
    }
    emit(&mut out, &src[anchor..], 0, 0);
    out
}

/// Emit one token: `literals`, then (if `match_len > 0`) a match copy of
/// `match_len` bytes at `offset` back.
fn emit(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    let lit_nib = literals.len().min(15);
    let mat_nib = if match_len == 0 {
        0
    } else {
        (match_len - MIN_MATCH).min(15)
    };
    out.push(((lit_nib as u8) << 4) | mat_nib as u8);
    if literals.len() >= 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_len - MIN_MATCH >= 15 {
            put_len(out, match_len - MIN_MATCH - 15);
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self, expected: &'static str) -> Result<u8, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(DecodeError::new(
                self.pos,
                expected,
                Found::Length(self.buf.len() as u64),
            )),
        }
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DecodeError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(DecodeError::new(
                self.pos,
                expected,
                Found::Length(self.buf.len() as u64),
            )),
        }
    }

    /// Read an LZ4 extended length: a run of 255 bytes plus a final
    /// sub-255 byte. Bounded by the raw size so a malicious run of 255s
    /// cannot spin unboundedly.
    fn ext_len(&mut self, bound: usize) -> Result<usize, DecodeError> {
        let mut len = 0usize;
        loop {
            let b = self.byte("lz4 length byte")?;
            len += b as usize;
            if len > bound {
                return Err(DecodeError::new(
                    self.pos,
                    "lz4 length within bound",
                    Found::Length(len as u64),
                ));
            }
            if b != 255 {
                return Ok(len);
            }
        }
    }
}

/// Decompress an LZ4 block that must expand to exactly `raw_len` bytes.
/// Fail-closed: every read and copy is bounds-checked and the output
/// buffer never grows past `raw_len`, so malformed or truncated input
/// yields an error, never a panic or oversized allocation.
pub(crate) fn decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(raw_len);
    let mut cur = Cursor { buf: src, pos: 0 };
    while out.len() < raw_len {
        let token = cur.byte("lz4 token")?;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += cur.ext_len(raw_len)?;
        }
        if out.len() + lit_len > raw_len {
            return Err(DecodeError::new(
                cur.pos,
                "literal run within raw length",
                Found::Length(lit_len as u64),
            ));
        }
        out.extend_from_slice(cur.take(lit_len, "lz4 literals")?);
        if cur.pos == src.len() {
            break; // final token carries literals only
        }
        let offset = u16::from_le_bytes(cur.take(2, "lz4 match offset")?.try_into().unwrap());
        let offset = offset as usize;
        if offset == 0 || offset > out.len() {
            return Err(DecodeError::new(
                cur.pos,
                "match offset within output",
                Found::Length(offset as u64),
            ));
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += cur.ext_len(raw_len)?;
        }
        match_len += MIN_MATCH;
        if out.len() + match_len > raw_len {
            return Err(DecodeError::new(
                cur.pos,
                "match run within raw length",
                Found::Length(match_len as u64),
            ));
        }
        // Overlapping copy: byte-at-a-time is the defined semantics
        // (offset 1 replicates the last byte).
        let start = out.len() - offset;
        for i in 0..match_len {
            let b = out[start + i];
            out.push(b);
        }
    }
    if out.len() != raw_len || cur.pos != src.len() {
        return Err(DecodeError::new(
            cur.pos,
            "lz4 block matching raw length",
            Found::Length(out.len() as u64),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed, data.len()).expect("decompress");
        assert_eq!(unpacked, data);
    }

    #[test]
    fn round_trips_assorted_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"hello world");
        round_trip(&[0u8; 4096]);
        let repetitive: Vec<u8> = b"key=value;".iter().copied().cycle().take(10_000).collect();
        round_trip(&repetitive);
        let sawtooth: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        round_trip(&sawtooth);
        // Pseudo-random (incompressible) bytes.
        let mut x = 0x9e3779b97f4a7c15u64;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        round_trip(&noise);
    }

    #[test]
    fn repetitive_input_actually_shrinks() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(4096).collect();
        let packed = compress(&data);
        assert!(
            packed.len() * 4 < data.len(),
            "expected >4x on repetitive input, got {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn truncated_and_garbled_inputs_fail_closed() {
        let data: Vec<u8> = b"state blob state blob state blob".repeat(32);
        let packed = compress(&data);
        for cut in 0..packed.len() {
            assert!(decompress(&packed[..cut], data.len()).is_err() || cut == packed.len());
        }
        // Wrong raw length in both directions.
        assert!(decompress(&packed, data.len() + 1).is_err());
        assert!(decompress(&packed, data.len().saturating_sub(1)).is_err());
        // Arbitrary garbage with a huge claimed extension must error, not
        // allocate.
        let garbage = [0xFFu8; 64];
        assert!(decompress(&garbage, 1024).is_err());
        // Match offset pointing before the start of output.
        let bad = [0x01u8, b'x', 0x09, 0x00]; // 1 literal, then offset 9
        assert!(decompress(&bad, 64).is_err());
    }
}
