//! A tiny self-contained binary codec for state serialization.
//!
//! Key-group state must cross node boundaries during migration (§3, *State
//! Migration*). Rather than pull in a serialization framework, operators
//! encode their state with these little-endian primitives. The codec is
//! versionless and only used inside one process run, so stability across
//! releases is a non-goal; determinism and exactness are.

use std::collections::BTreeMap;

use crate::tuple::Value;

/// Append-only binary writer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a [`Value`] (tagged).
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.buf.push(0),
            Value::Int(i) => {
                self.buf.push(1);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.buf.push(2);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.buf.push(3);
                self.put_str(s);
            }
            Value::List(l) => {
                self.buf.push(4);
                self.put_u64(l.len() as u64);
                for item in l {
                    self.put_value(item);
                }
            }
        }
    }

    /// Write raw bytes with no length prefix (the caller records the
    /// count — the per-column convention of [`crate::chunk`]).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a `u64` column as one flat little-endian buffer (no length
    /// prefix; the caller records the count).
    pub fn put_u64_slice(&mut self, vals: &[u64]) {
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Write an `i64` column as one flat little-endian buffer.
    pub fn put_i64_slice(&mut self, vals: &[i64]) {
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Write an `f64` column as one flat little-endian buffer.
    pub fn put_f64_slice(&mut self, vals: &[f64]) {
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a `u32` column as one flat little-endian buffer.
    pub fn put_u32_slice(&mut self, vals: &[u32]) {
        self.buf.reserve(vals.len() * 4);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a string-keyed map of `f64` (a very common window-state
    /// shape) in per-column layout: count, every key, then all values as
    /// one flat `f64` buffer.
    pub fn put_map_f64(&mut self, m: &BTreeMap<String, f64>) {
        self.put_u64(m.len() as u64);
        for k in m.keys() {
            self.put_str(k);
        }
        for &v in m.values() {
            self.put_f64(v);
        }
    }

    /// Write a u64-keyed map of `f64` in per-column layout: count, then
    /// the key column and the value column as flat buffers.
    pub fn put_map_u64_f64(&mut self, m: &BTreeMap<u64, f64>) {
        self.put_u64(m.len() as u64);
        for &k in m.keys() {
            self.put_u64(k);
        }
        for &v in m.values() {
            self.put_f64(v);
        }
    }
}

/// Sequential binary reader over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// What a failing decoder actually found at the error offset (see
/// [`DecodeError::found`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// The input ended early: only `remaining` bytes were left where the
    /// decoder needed more.
    Truncated {
        /// Bytes left in the input at the failure point.
        remaining: usize,
    },
    /// An unknown or out-of-place tag byte.
    Tag(u8),
    /// A length or element-count prefix larger than the input could
    /// possibly back (a hostile prefix must fail before any allocation).
    Length(u64),
    /// Bytes that are not valid UTF-8 where a string was expected.
    InvalidUtf8,
}

impl std::fmt::Display for Found {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Found::Truncated { remaining } => write!(f, "only {remaining} bytes remaining"),
            Found::Tag(t) => write!(f, "tag byte {t:#04x}"),
            Found::Length(n) => write!(f, "length prefix {n}"),
            Found::InvalidUtf8 => write!(f, "invalid UTF-8"),
        }
    }
}

/// Decoding failure: truncated or malformed input, carrying the byte
/// offset at which decoding failed, what the decoder expected there, and
/// what it found instead — enough to diagnose a bad frame that arrived
/// off a socket, not just that *something* was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the input at which decoding failed.
    pub offset: usize,
    /// What the decoder was trying to read (a static description such as
    /// `"u64"` or `"value tag"`).
    pub expected: &'static str,
    /// What it found instead.
    pub found: Found,
}

impl DecodeError {
    /// Construct an error for a failure at `offset`.
    pub fn new(offset: usize, expected: &'static str, found: Found) -> Self {
        DecodeError {
            offset,
            expected,
            found,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decode error at byte {}: expected {}, found {}",
            self.offset, self.expected, self.found
        )
    }
}
impl std::error::Error for DecodeError {}

impl<'a> Reader<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// `true` once all bytes are consumed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Current read offset (the position decode errors report).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// An error at the current offset.
    fn err(&self, expected: &'static str, found: Found) -> DecodeError {
        DecodeError::new(self.pos, expected, found)
    }

    fn err_truncated(&self, expected: &'static str) -> DecodeError {
        self.err(
            expected,
            Found::Truncated {
                remaining: self.remaining(),
            },
        )
    }

    fn take_for(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DecodeError> {
        // Checked add: a hostile `n` near `usize::MAX` must not wrap
        // around into a bogus in-bounds range.
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            _ => Err(self.err_truncated(expected)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take_for(n, "raw bytes")
    }

    /// Read an element count that is about to drive a loop or an
    /// allocation: each element needs at least `min_size` more bytes, so
    /// any count the remaining input cannot back is rejected *before*
    /// anything is allocated.
    fn get_count(&mut self, min_size: usize, expected: &'static str) -> Result<usize, DecodeError> {
        let at = self.pos;
        let raw = self.get_u64()?;
        let n: usize = raw
            .try_into()
            .map_err(|_| DecodeError::new(at, expected, Found::Length(raw)))?;
        let need = n.checked_mul(min_size.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(DecodeError::new(at, expected, Found::Length(raw))),
        }
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take_for(8, "u64")?.try_into().unwrap(),
        ))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(
            self.take_for(8, "i64")?.try_into().unwrap(),
        ))
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(
            self.take_for(8, "f64")?.try_into().unwrap(),
        ))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_count(1, "string length")?;
        let at = self.pos;
        let bytes = self.take_for(len, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new(at, "UTF-8 string", Found::InvalidUtf8))
    }

    /// Read a [`Value`].
    pub fn get_value(&mut self) -> Result<Value, DecodeError> {
        let at = self.pos;
        let tag = self.take_for(1, "value tag")?[0];
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Int(self.get_i64()?),
            2 => Value::Float(self.get_f64()?),
            3 => Value::Str(self.get_str()?),
            4 => {
                let n = self.get_count(1, "list length")?;
                let mut l = Vec::with_capacity(n);
                for _ in 0..n {
                    l.push(self.get_value()?);
                }
                Value::List(l)
            }
            _ => return Err(DecodeError::new(at, "value tag 0..=4", Found::Tag(tag))),
        })
    }

    /// Read `n` raw bytes (count recorded by the caller, matching
    /// [`Writer::put_bytes`]).
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Read an `n`-element column of `W`-byte little-endian words into
    /// `out`, replacing its contents and keeping its allocation.
    /// Bounds-checked before reserving, so a bogus on-wire count cannot
    /// trigger a huge reservation.
    fn column_into<T, const W: usize>(
        &mut self,
        n: usize,
        expected: &'static str,
        out: &mut Vec<T>,
        from_le: fn([u8; W]) -> T,
    ) -> Result<(), DecodeError> {
        let total = n
            .checked_mul(W)
            .ok_or_else(|| self.err(expected, Found::Length(n as u64)))?;
        let bytes = self.take_for(total, expected)?;
        out.clear();
        // Exact: a reused buffer grows to the column, not past it.
        out.reserve_exact(n);
        out.extend(
            bytes
                .chunks_exact(W)
                .map(|c| from_le(c.try_into().unwrap())),
        );
        Ok(())
    }

    /// Read an `n`-element `u64` column written by
    /// [`Writer::put_u64_slice`] into `out` (replacing its contents).
    pub(crate) fn get_u64_into(&mut self, n: usize, out: &mut Vec<u64>) -> Result<(), DecodeError> {
        self.column_into(n, "u64 column", out, u64::from_le_bytes)
    }

    /// Read an `n`-element `i64` column written by
    /// [`Writer::put_i64_slice`] into `out` (replacing its contents).
    pub(crate) fn get_i64_into(&mut self, n: usize, out: &mut Vec<i64>) -> Result<(), DecodeError> {
        self.column_into(n, "i64 column", out, i64::from_le_bytes)
    }

    /// Read an `n`-element `f64` column written by
    /// [`Writer::put_f64_slice`] into `out` (replacing its contents).
    pub(crate) fn get_f64_into(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), DecodeError> {
        self.column_into(n, "f64 column", out, f64::from_le_bytes)
    }

    /// Read an `n`-element `u32` column written by
    /// [`Writer::put_u32_slice`] into `out` (replacing its contents).
    pub(crate) fn get_u32_into(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), DecodeError> {
        self.column_into(n, "u32 column", out, u32::from_le_bytes)
    }

    /// Read an `n`-element `u64` column written by
    /// [`Writer::put_u64_slice`].
    pub fn get_u64_vec(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        let mut v = Vec::new();
        self.get_u64_into(n, &mut v)?;
        Ok(v)
    }

    /// Read an `n`-element `i64` column written by
    /// [`Writer::put_i64_slice`].
    pub fn get_i64_vec(&mut self, n: usize) -> Result<Vec<i64>, DecodeError> {
        let mut v = Vec::new();
        self.get_i64_into(n, &mut v)?;
        Ok(v)
    }

    /// Read an `n`-element `f64` column written by
    /// [`Writer::put_f64_slice`].
    pub fn get_f64_vec(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut v = Vec::new();
        self.get_f64_into(n, &mut v)?;
        Ok(v)
    }

    /// Read an `n`-element `u32` column written by
    /// [`Writer::put_u32_slice`].
    pub fn get_u32_vec(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        let mut v = Vec::new();
        self.get_u32_into(n, &mut v)?;
        Ok(v)
    }

    /// Read a string-keyed `f64` map (per-column layout, see
    /// [`Writer::put_map_f64`]).
    pub fn get_map_f64(&mut self) -> Result<BTreeMap<String, f64>, DecodeError> {
        let n = self.get_count(8, "map entry count")?;
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(self.get_str()?);
        }
        let vals = self.get_f64_vec(n)?;
        Ok(keys.into_iter().zip(vals).collect())
    }

    /// Read a u64-keyed `f64` map (per-column layout, see
    /// [`Writer::put_map_u64_f64`]).
    pub fn get_map_u64_f64(&mut self) -> Result<BTreeMap<u64, f64>, DecodeError> {
        let n = self.get_count(16, "map entry count")?;
        let keys = self.get_u64_vec(n)?;
        let vals = self.get_f64_vec(n)?;
        Ok(keys.into_iter().zip(vals).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u64(42);
        w.put_i64(-7);
        w.put_f64(2.5);
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_i64().unwrap(), -7);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert!(r.is_done());
    }

    #[test]
    fn values_roundtrip() {
        let vals = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(-0.125),
            Value::Str("ünïcode ✓".into()),
            Value::List(vec![
                Value::Int(1),
                Value::List(vec![Value::Null]),
                Value::Str("x".into()),
            ]),
        ];
        for v in &vals {
            let mut w = Writer::new();
            w.put_value(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(&r.get_value().unwrap(), v);
            assert!(r.is_done());
        }
    }

    #[test]
    fn maps_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1.5);
        m.insert("b".to_string(), -2.0);
        let mut w = Writer::new();
        w.put_map_f64(&m);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_map_f64().unwrap(), m);

        let mut m2 = BTreeMap::new();
        m2.insert(10u64, 0.5);
        m2.insert(20u64, 0.25);
        let mut w = Writer::new();
        w.put_map_u64_f64(&m2);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_map_u64_f64().unwrap(), m2);
    }

    #[test]
    fn column_slices_roundtrip() {
        let mut w = Writer::new();
        w.put_u64(3);
        w.put_u64_slice(&[1, 2, 3]);
        w.put_i64_slice(&[-1, 0, i64::MAX]);
        w.put_f64_slice(&[0.5, -2.25, 1e9]);
        w.put_u32_slice(&[7, 8, 9]);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let n = r.get_u64().unwrap() as usize;
        assert_eq!(r.get_u64_vec(n).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_i64_vec(n).unwrap(), vec![-1, 0, i64::MAX]);
        assert_eq!(r.get_f64_vec(n).unwrap(), vec![0.5, -2.25, 1e9]);
        assert_eq!(r.get_u32_vec(n).unwrap(), vec![7, 8, 9]);
        assert_eq!(r.get_bytes(3).unwrap(), b"abc");
        assert!(r.is_done());
        // Empty columns are zero bytes.
        let mut w = Writer::new();
        w.put_u64_slice(&[]);
        assert!(w.into_bytes().is_empty());
        // A bogus element count fails before allocating.
        let mut r = Reader::new(&[0u8; 16]);
        assert!(r.get_u64_vec(usize::MAX).is_err());
        assert!(r.get_u64_vec(3).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        w.put_str("hello world");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        let err = r.get_str().unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.found, Found::Truncated { remaining: 5 });

        let mut r = Reader::new(&[]);
        let err = r.get_u64().unwrap_err();
        assert_eq!(
            err,
            DecodeError::new(0, "u64", Found::Truncated { remaining: 0 })
        );
        assert!(err.to_string().contains("expected u64"));
    }

    #[test]
    fn malformed_tag_errors() {
        let mut r = Reader::new(&[99]);
        let err = r.get_value().unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.found, Found::Tag(99));
        assert!(err.to_string().contains("0x63"));
    }

    #[test]
    fn bogus_length_is_rejected() {
        // List claiming u64::MAX entries must not allocate or loop forever.
        let mut w = Writer::new();
        w.buf.push(4);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_value().unwrap_err();
        assert_eq!(err.found, Found::Length(u64::MAX));
        // The error points at the length prefix, just past the list tag.
        assert_eq!(err.offset, 1);
    }

    #[test]
    fn invalid_utf8_reports_string_offset() {
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_str().unwrap_err();
        assert_eq!(err.found, Found::InvalidUtf8);
        assert_eq!(err.offset, 8);
    }
}
