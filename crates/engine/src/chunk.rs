//! Columnar stream chunks: the unit of every tuple hop in the threaded
//! data plane ([`crate::runtime`]).
//!
//! A [`StreamChunk`] stores a batch of tuples as column arrays instead of
//! `Vec<Tuple>` rows — the shape RisingWave's `stream_chunk.rs` uses: a
//! pre-hashed key column, a timestamp column, one dense array per
//! [`Value`] variant (an Arrow-style dense union: a tag byte plus an
//! index into the variant's array), a key-group column filled by one
//! vectorized pass over the keys, and a visibility bitmap so rows can be
//! masked without moving memory. The payoff over `Vec<Tuple>` batches:
//!
//! - **Vectorized key-group hashing**: [`StreamChunk::assign_groups`] is
//!   one tight `base + key % span` loop over the key column, not a
//!   per-tuple virtual topology lookup.
//! - **Batch-per-virtual-call**: workers hand a whole group run to
//!   [`crate::operator::Operator::process_chunk`] at once.
//! - **Flat-copy splicing**: routing a chunk is a counting sort over the
//!   group column ([`ChunkSorter`]) followed by contiguous
//!   [`StreamChunk::append_range`] splices per destination — fixed-width
//!   columns move with `extend_from_slice`, never per-row boxing.
//! - **Flat-copy serialization**: [`StreamChunk::encode`] writes each
//!   column as one length-prefixed little-endian buffer via the
//!   [`crate::codec`] slice primitives.
//!
//! Chunks are an engine-internal transport format; operators and tests
//! can round-trip through rows with [`StreamChunk::from_tuples`] /
//! [`StreamChunk::tuple_at`] — the runtime itself appends an operator's
//! period-end [`crate::operator::Emissions`] row by row
//! ([`StreamChunk::push_tuple`]).

use albic_types::OperatorId;

use crate::codec::{DecodeError, Found, Reader, Writer};
use crate::topology::Topology;
use crate::tuple::{Key, Tuple, Value};

/// Dense-union tag for [`Value::Null`].
const TAG_NULL: u8 = 0;
/// Dense-union tag for [`Value::Int`].
const TAG_INT: u8 = 1;
/// Dense-union tag for [`Value::Float`].
const TAG_FLOAT: u8 = 2;
/// Dense-union tag for [`Value::Str`].
const TAG_STR: u8 = 3;
/// Dense-union tag for [`Value::List`].
const TAG_LIST: u8 = 4;

/// Sentinel in the group column for rows not yet routed by
/// [`StreamChunk::assign_groups`].
pub const NO_GROUP: u32 = u32::MAX;

/// A batch of tuples in columnar layout (see the module docs).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StreamChunk {
    /// Pre-hashed key column.
    keys: Vec<Key>,
    /// Event-time column.
    ts: Vec<u64>,
    /// Key-group column ([`NO_GROUP`] until [`StreamChunk::assign_groups`]).
    groups: Vec<u32>,
    /// Per-row [`Value`] variant tag.
    tags: Vec<u8>,
    /// Per-row index into the variant array selected by the tag (dense
    /// union). Always in row order: row `i`'s offset is the number of
    /// earlier rows with the same tag.
    offsets: Vec<u32>,
    /// All `Int` payloads, in row order.
    ints: Vec<i64>,
    /// All `Float` payloads, in row order.
    floats: Vec<f64>,
    /// End offset into `str_data` per `Str` row, monotone (prefix ends).
    str_ends: Vec<u32>,
    /// Concatenated UTF-8 bytes of every `Str` payload.
    str_data: Vec<u8>,
    /// `List` payloads keep their row form: nesting is rare and opaque.
    lists: Vec<Vec<Value>>,
    /// Visibility bitmap, one bit per row; empty means all-visible.
    vis: Vec<u64>,
    /// Number of hidden rows (`vis` zeros), cached.
    hidden: usize,
}

impl StreamChunk {
    /// Fresh empty chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty chunk with row capacity reserved in the fixed-width columns
    /// (the `Int` payload column is sized to it at the first `Int` row).
    pub fn with_capacity(rows: usize) -> Self {
        StreamChunk {
            keys: Vec::with_capacity(rows),
            ts: Vec::with_capacity(rows),
            groups: Vec::with_capacity(rows),
            tags: Vec::with_capacity(rows),
            offsets: Vec::with_capacity(rows),
            ..Self::default()
        }
    }

    /// Rows the key column holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.keys.capacity()
    }

    /// Number of rows, visible or not.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the chunk holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of visible rows.
    pub fn visible_len(&self) -> usize {
        self.len() - self.hidden
    }

    /// Drop all rows, keeping column allocations for reuse.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.ts.clear();
        self.groups.clear();
        self.tags.clear();
        self.offsets.clear();
        self.ints.clear();
        self.floats.clear();
        self.str_ends.clear();
        self.str_data.clear();
        self.lists.clear();
        self.vis.clear();
        self.hidden = 0;
    }

    /// Append one row, taking ownership of the payload (no clone for
    /// `Str`/`List`). The new row is visible and unrouted.
    #[inline]
    pub fn push(&mut self, key: Key, value: Value, ts: u64) {
        self.keys.push(key);
        self.ts.push(ts);
        self.groups.push(NO_GROUP);
        match value {
            Value::Null => {
                self.tags.push(TAG_NULL);
                self.offsets.push(0);
            }
            Value::Int(i) => {
                if self.ints.capacity() == 0 {
                    // The payload column is left unreserved by
                    // `with_capacity` (a chunk may hold no Int at all);
                    // size it to the row capacity at its first Int
                    // instead of regrowing it 4 → 8 → … → `rows`.
                    self.ints.reserve_exact(self.keys.capacity());
                }
                self.tags.push(TAG_INT);
                self.offsets.push(self.ints.len() as u32);
                self.ints.push(i);
            }
            Value::Float(f) => {
                self.tags.push(TAG_FLOAT);
                self.offsets.push(self.floats.len() as u32);
                self.floats.push(f);
            }
            Value::Str(s) => {
                self.tags.push(TAG_STR);
                self.offsets.push(self.str_ends.len() as u32);
                self.str_data.extend_from_slice(s.as_bytes());
                self.str_ends.push(self.str_data.len() as u32);
            }
            Value::List(l) => {
                self.tags.push(TAG_LIST);
                self.offsets.push(self.lists.len() as u32);
                self.lists.push(l);
            }
        }
        if !self.vis.is_empty() {
            self.grow_vis();
        }
    }

    /// Append one row from a [`Tuple`].
    pub fn push_tuple(&mut self, tuple: Tuple) {
        self.push(tuple.key, tuple.value, tuple.ts);
    }

    /// Append one row from a [`Tuple`], pre-routed to `group` — the
    /// injector's direct-to-bucket path, which skips the separate
    /// [`StreamChunk::assign_groups`] pass.
    #[inline]
    pub fn push_routed(&mut self, tuple: Tuple, group: u32) {
        self.push(tuple.key, tuple.value, tuple.ts);
        *self.groups.last_mut().expect("just pushed") = group;
    }

    /// Build a chunk from row tuples (all visible, unrouted).
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let iter = tuples.into_iter();
        let mut chunk = StreamChunk::with_capacity(iter.size_hint().0);
        for t in iter {
            chunk.push_tuple(t);
        }
        chunk
    }

    /// Key of row `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key {
        self.keys[i]
    }

    /// Timestamp of row `i`.
    #[inline]
    pub fn ts_at(&self, i: usize) -> u64 {
        self.ts[i]
    }

    /// Key group of row `i` ([`NO_GROUP`] if unrouted).
    #[inline]
    pub fn group_at(&self, i: usize) -> u32 {
        self.groups[i]
    }

    /// The key column.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The key-group column.
    pub fn groups(&self) -> &[u32] {
        &self.groups
    }

    /// Materialize row `i`'s payload.
    pub fn value_at(&self, i: usize) -> Value {
        let o = self.offsets[i] as usize;
        match self.tags[i] {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(self.ints[o]),
            TAG_FLOAT => Value::Float(self.floats[o]),
            TAG_STR => Value::Str(
                String::from_utf8(self.str_bytes(o).to_vec()).expect("chunk strings are UTF-8"),
            ),
            _ => Value::List(self.lists[o].clone()),
        }
    }

    /// UTF-8 bytes of the `o`-th `Str` payload.
    fn str_bytes(&self, o: usize) -> &[u8] {
        let start = if o == 0 {
            0
        } else {
            self.str_ends[o - 1] as usize
        };
        &self.str_data[start..self.str_ends[o] as usize]
    }

    /// Materialize row `i` as a [`Tuple`].
    pub fn tuple_at(&self, i: usize) -> Tuple {
        Tuple::raw(self.keys[i], self.value_at(i), self.ts[i])
    }

    /// Materialize every visible row, in order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len())
            .filter(|&i| self.is_visible(i))
            .map(|i| self.tuple_at(i))
            .collect()
    }

    /// `true` if row `i` is visible.
    #[inline]
    pub fn is_visible(&self, i: usize) -> bool {
        self.vis.is_empty() || self.vis[i / 64] & (1 << (i % 64)) != 0
    }

    /// Hide row `i` (idempotent). Hidden rows keep their storage until
    /// [`StreamChunk::compact`]; every splice and scan skips them.
    pub fn hide(&mut self, i: usize) {
        if self.vis.is_empty() {
            self.vis = vec![u64::MAX; self.len().div_ceil(64)];
        }
        if self.vis[i / 64] & (1 << (i % 64)) != 0 {
            self.vis[i / 64] &= !(1 << (i % 64));
            self.hidden += 1;
        }
    }

    /// Mark the freshly pushed last row visible in an allocated bitmap.
    fn grow_vis(&mut self) {
        let i = self.len() - 1;
        if self.vis.len() <= i / 64 {
            self.vis.push(0);
        }
        self.vis[i / 64] |= 1 << (i % 64);
    }

    /// Rewrite the chunk to visible rows only (drops the bitmap).
    pub fn compact(&mut self) {
        if self.hidden == 0 {
            self.vis.clear();
            return;
        }
        let mut packed = StreamChunk::with_capacity(self.visible_len());
        packed.append_range(self, 0, self.len());
        *self = packed;
    }

    /// Fill the key-group column for operator `op`: one vectorized pass
    /// of `base + key % span` over the key column (the hot-path
    /// replacement for per-tuple [`Topology::group_for_key`] calls).
    pub fn assign_groups(&mut self, op: OperatorId, topology: &Topology) {
        let range = topology.groups_of(op);
        let base = range.start;
        let span = (range.end - range.start) as u64;
        self.groups.clear();
        self.groups
            .extend(self.keys.iter().map(|&k| base + (k % span) as u32));
    }

    /// Overwrite row `i`'s key-group assignment (testing and replay
    /// plumbing; the hot path fills the whole column via
    /// [`StreamChunk::assign_groups`]).
    pub fn set_group(&mut self, i: usize, group: u32) {
        self.groups[i] = group;
    }

    /// `true` if the group column is nondecreasing (rows already bucketed
    /// — the counting sort can be skipped).
    pub fn groups_sorted(&self) -> bool {
        self.groups.windows(2).all(|w| w[0] <= w[1])
    }

    /// Splice the visible rows `start..end` of `src` onto the end of this
    /// chunk. Fixed-width columns move as flat `extend_from_slice` copies;
    /// appended rows are visible and keep their group assignment.
    pub fn append_range(&mut self, src: &StreamChunk, start: usize, end: usize) {
        if src.hidden == 0 {
            self.keys.extend_from_slice(&src.keys[start..end]);
            self.ts.extend_from_slice(&src.ts[start..end]);
            self.groups.extend_from_slice(&src.groups[start..end]);
            if src.ints.len() == src.len() {
                // Homogeneous all-Int chunk: `offsets[i] == i`, so the
                // payload splices flat too — no per-row tag dispatch.
                let base = self.ints.len() as u32;
                self.ints.extend_from_slice(&src.ints[start..end]);
                self.tags.extend_from_slice(&src.tags[start..end]);
                self.offsets
                    .extend((0..(end - start) as u32).map(|k| base + k));
            } else if src.floats.len() == src.len() {
                let base = self.floats.len() as u32;
                self.floats.extend_from_slice(&src.floats[start..end]);
                self.tags.extend_from_slice(&src.tags[start..end]);
                self.offsets
                    .extend((0..(end - start) as u32).map(|k| base + k));
            } else {
                for i in start..end {
                    self.append_payload(src, i);
                }
            }
            let added = end - start;
            if !self.vis.is_empty() {
                for _ in 0..added {
                    self.grow_vis();
                }
            }
        } else {
            for i in start..end {
                if src.is_visible(i) {
                    self.append_row(src, i);
                }
            }
        }
    }

    /// Append the rows of `src` named by a selection vector (row indices
    /// in order). Selected rows must be visible — selections come from
    /// [`ChunkSorter::bucket`], which only emits visible rows.
    pub fn append_sel(&mut self, src: &StreamChunk, sel: &[u32]) {
        if src.hidden == 0 && src.ints.len() == src.len() {
            // Homogeneous all-Int source: gather the four fixed-width
            // columns directly, no per-row tag dispatch (`offsets[i] ==
            // i` in an all-Int chunk).
            let base = self.ints.len() as u32;
            self.keys.extend(sel.iter().map(|&i| src.keys[i as usize]));
            self.ts.extend(sel.iter().map(|&i| src.ts[i as usize]));
            self.groups
                .extend(sel.iter().map(|&i| src.groups[i as usize]));
            self.ints.extend(sel.iter().map(|&i| src.ints[i as usize]));
            self.tags.resize(self.tags.len() + sel.len(), TAG_INT);
            self.offsets.extend((0..sel.len() as u32).map(|k| base + k));
            if !self.vis.is_empty() {
                for _ in 0..sel.len() {
                    self.grow_vis();
                }
            }
            return;
        }
        self.keys.reserve(sel.len());
        for &i in sel {
            self.append_row(src, i as usize);
        }
    }

    /// Append the rows viewed by `rows` — a flat [`StreamChunk::append_range`]
    /// for contiguous slices, a gather for selection-vector slices.
    pub fn append_slice(&mut self, rows: &ChunkSlice<'_>) {
        match rows.sel {
            None => self.append_range(rows.chunk, rows.start, rows.end),
            Some(sel) => self.append_sel(rows.chunk, sel),
        }
    }

    /// Append the single (visible) row `i` of `src`.
    #[inline]
    pub fn append_row(&mut self, src: &StreamChunk, i: usize) {
        self.keys.push(src.keys[i]);
        self.ts.push(src.ts[i]);
        self.groups.push(src.groups[i]);
        self.append_payload(src, i);
        if !self.vis.is_empty() {
            self.grow_vis();
        }
    }

    /// Append row `i`'s payload columns (tag/offset/variant data) only.
    #[inline]
    fn append_payload(&mut self, src: &StreamChunk, i: usize) {
        let tag = src.tags[i];
        let o = src.offsets[i] as usize;
        self.tags.push(tag);
        match tag {
            TAG_NULL => self.offsets.push(0),
            TAG_INT => {
                self.offsets.push(self.ints.len() as u32);
                self.ints.push(src.ints[o]);
            }
            TAG_FLOAT => {
                self.offsets.push(self.floats.len() as u32);
                self.floats.push(src.floats[o]);
            }
            TAG_STR => {
                self.offsets.push(self.str_ends.len() as u32);
                self.str_data.extend_from_slice(src.str_bytes(o));
                self.str_ends.push(self.str_data.len() as u32);
            }
            _ => {
                self.offsets.push(self.lists.len() as u32);
                self.lists.push(src.lists[o].clone());
            }
        }
    }

    /// Approximate wire size in bytes (fixed columns + payload data).
    pub fn size_bytes(&self) -> usize {
        self.len() * 21
            + self.ints.len() * 8
            + self.floats.len() * 8
            + self.str_data.len()
            + self.str_ends.len() * 4
            + self
                .lists
                .iter()
                .map(|l| 24 + l.iter().map(Value::size_bytes).sum::<usize>())
                .sum::<usize>()
    }

    /// Encode the chunk as flat per-column little-endian buffers (the
    /// migration/checkpoint transport shape; see [`crate::codec`]).
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_u64_slice(&self.keys);
        w.put_u64_slice(&self.ts);
        w.put_u32_slice(&self.groups);
        w.put_bytes(&self.tags);
        w.put_u64(self.ints.len() as u64);
        w.put_i64_slice(&self.ints);
        w.put_u64(self.floats.len() as u64);
        w.put_f64_slice(&self.floats);
        w.put_u64(self.str_ends.len() as u64);
        w.put_u32_slice(&self.str_ends);
        w.put_u64(self.str_data.len() as u64);
        w.put_bytes(&self.str_data);
        w.put_u64(self.lists.len() as u64);
        for l in &self.lists {
            w.put_u64(l.len() as u64);
            for v in l {
                w.put_value(v);
            }
        }
        w.put_u64(self.vis.len() as u64);
        w.put_u64_slice(&self.vis);
    }

    /// Decode a chunk written by [`StreamChunk::encode`]. The per-row
    /// offsets are rebuilt from the tag column (rows are always stored in
    /// push order), and cross-column lengths are validated.
    pub fn decode(r: &mut Reader<'_>) -> Result<StreamChunk, DecodeError> {
        let mut chunk = StreamChunk::new();
        chunk.decode_into(r)?;
        Ok(chunk)
    }

    /// [`StreamChunk::decode`] into this chunk, replacing its rows and
    /// reusing its column allocations — how a recycled buffer takes an
    /// inbound frame. On error the chunk holds an unspecified prefix of
    /// the input; clear or drop it.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.clear();
        let len = r.get_u64()? as usize;
        r.get_u64_into(len, &mut self.keys)?;
        r.get_u64_into(len, &mut self.ts)?;
        r.get_u32_into(len, &mut self.groups)?;
        self.tags.extend_from_slice(r.get_bytes(len)?);
        let n_ints = r.get_u64()? as usize;
        r.get_i64_into(n_ints, &mut self.ints)?;
        let n_floats = r.get_u64()? as usize;
        r.get_f64_into(n_floats, &mut self.floats)?;
        let n_strs = r.get_u64()? as usize;
        r.get_u32_into(n_strs, &mut self.str_ends)?;
        let str_len = r.get_u64()? as usize;
        self.str_data.extend_from_slice(r.get_bytes(str_len)?);
        let n_lists = r.get_u64()? as usize;
        if n_lists > len {
            return Err(DecodeError::new(
                r.offset(),
                "list count <= row count",
                Found::Length(n_lists as u64),
            ));
        }
        for _ in 0..n_lists {
            let n = r.get_u64()? as usize;
            // Don't trust a wire length for allocation: push into an
            // unsized Vec and let truncation surface in get_value.
            let mut l = Vec::new();
            for _ in 0..n {
                l.push(r.get_value()?);
            }
            self.lists.push(l);
        }
        let n_vis = r.get_u64()? as usize;
        r.get_u64_into(n_vis, &mut self.vis)?;
        if !self.vis.is_empty() && self.vis.len() != len.div_ceil(64) {
            return Err(DecodeError::new(
                r.offset(),
                "visibility bitmap sized to row count",
                Found::Length(self.vis.len() as u64),
            ));
        }
        // Rebuild dense-union offsets and validate variant counts.
        self.offsets.reserve(len);
        let (mut ci, mut cf, mut cs, mut cl) = (0u32, 0u32, 0u32, 0u32);
        for &tag in &self.tags {
            match tag {
                TAG_NULL => self.offsets.push(0),
                TAG_INT => {
                    self.offsets.push(ci);
                    ci += 1;
                }
                TAG_FLOAT => {
                    self.offsets.push(cf);
                    cf += 1;
                }
                TAG_STR => {
                    self.offsets.push(cs);
                    cs += 1;
                }
                TAG_LIST => {
                    self.offsets.push(cl);
                    cl += 1;
                }
                _ => {
                    return Err(DecodeError::new(
                        r.offset(),
                        "chunk value tag 0..=4",
                        Found::Tag(tag),
                    ))
                }
            }
        }
        if ci as usize != n_ints || cf as usize != n_floats || cs as usize != n_strs {
            return Err(DecodeError::new(
                r.offset(),
                "variant column lengths matching tag counts",
                Found::Length(n_ints.max(n_floats).max(n_strs) as u64),
            ));
        }
        if cl as usize != n_lists {
            return Err(DecodeError::new(
                r.offset(),
                "list column length matching tag count",
                Found::Length(n_lists as u64),
            ));
        }
        let str_ends = &self.str_ends;
        if str_ends.last().is_some_and(|&e| e as usize != str_len)
            || (str_ends.is_empty() && str_len != 0)
            || !str_ends.windows(2).all(|w| w[0] <= w[1])
        {
            return Err(DecodeError::new(
                r.offset(),
                "monotone string offsets ending at buffer length",
                Found::Length(str_len as u64),
            ));
        }
        if std::str::from_utf8(&self.str_data).is_err() {
            return Err(DecodeError::new(
                r.offset(),
                "UTF-8 string buffer",
                Found::InvalidUtf8,
            ));
        }
        if !self.vis.is_empty() {
            self.hidden = len
                - (0..len)
                    .filter(|&i| self.vis[i / 64] & (1 << (i % 64)) != 0)
                    .count();
        }
        Ok(())
    }
}

/// Reusable counting-sort scratch for bucketing a chunk by its group
/// column: stable (per-group arrival order is preserved — the FIFO
/// guarantee the data plane relies on) and allocation-free after warmup.
///
/// The hot path never materializes a sorted chunk: [`ChunkSorter::bucket`]
/// produces a row *permutation* plus per-group runs, and downstream code
/// reads rows through a selection-vector [`ChunkSlice`] — zero payload
/// copies to bucket a chunk.
#[derive(Debug, Default)]
pub struct ChunkSorter {
    /// Per-group row counts, then prefix-summed into write cursors.
    counts: Vec<u32>,
    /// Row permutation in group order.
    perm: Vec<u32>,
    /// Contiguous group runs: `(group, start, end)` indexing the
    /// permutation (or the source chunk directly on the sorted fast
    /// path).
    runs: Vec<(u32, u32, u32)>,
}

impl ChunkSorter {
    /// Fresh sorter (scratch grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket the visible rows of `src` by group. `num_groups` bounds the
    /// group ids; rows must be routed ([`StreamChunk::assign_groups`]).
    ///
    /// Returns `true` when a permutation was built: [`ChunkSorter::runs`]
    /// then yields `(group, start, end)` ranges into
    /// [`ChunkSorter::perm`]. Returns `false` when `src` was already in
    /// group order and fully visible (the common case for single-run
    /// emission chunks): the runs then index `src` rows directly and the
    /// permutation is not filled.
    pub fn bucket(&mut self, src: &StreamChunk, num_groups: usize) -> bool {
        self.runs.clear();
        let n = src.len();
        if src.hidden == 0 {
            // Fast path: scan out the contiguous runs as-is, no
            // permutation. Delivered chunks are concatenations of
            // group runs by construction, so this almost always wins;
            // only a row-interleaved chunk (many tiny runs, e.g. a
            // freshly packed injection chunk) falls through to the
            // counting sort, which coalesces each group into one run.
            let mut start = 0u32;
            while (start as usize) < n {
                let g = src.groups[start as usize];
                let mut end = start + 1;
                while (end as usize) < n && src.groups[end as usize] == g {
                    end += 1;
                }
                self.runs.push((g, start, end));
                start = end;
            }
            if self.runs.len() <= (n / 4).max(8) {
                return false;
            }
            self.runs.clear();
        }
        self.counts.clear();
        self.counts.resize(num_groups, 0);
        for i in 0..n {
            if src.is_visible(i) {
                self.counts[src.groups[i] as usize] += 1;
            }
        }
        // Prefix-sum the counts into per-group write cursors, emitting a
        // run per non-empty group.
        let mut acc = 0u32;
        for (g, c) in self.counts.iter_mut().enumerate() {
            let here = *c;
            *c = acc;
            if here > 0 {
                self.runs.push((g as u32, acc, acc + here));
            }
            acc += here;
        }
        self.perm.clear();
        self.perm.resize(acc as usize, 0);
        for i in 0..n {
            if src.is_visible(i) {
                let g = src.groups[i] as usize;
                self.perm[self.counts[g] as usize] = i as u32;
                self.counts[g] += 1;
            }
        }
        true
    }

    /// The group runs of the last [`ChunkSorter::bucket`] call.
    pub fn runs(&self) -> &[(u32, u32, u32)] {
        &self.runs
    }

    /// The row permutation of the last [`ChunkSorter::bucket`] call
    /// (meaningful only when it returned `true`).
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Stable-sort the visible rows of `src` by group into `out`
    /// (cleared first) — the materializing variant of
    /// [`ChunkSorter::bucket`], for callers that need an owned sorted
    /// chunk. Returns `false` without touching `out` when `src` is
    /// already in group order and fully visible — the caller can use
    /// `src` directly.
    pub fn sort_into(
        &mut self,
        src: &StreamChunk,
        num_groups: usize,
        out: &mut StreamChunk,
    ) -> bool {
        if src.hidden == 0 && src.groups_sorted() {
            return false;
        }
        if !self.bucket(src, num_groups) {
            // The concat fast path accepted the run structure as-is; the
            // materializing caller asked for one run per group, so gather
            // through the runs instead of a permutation.
            let runs = std::mem::take(&mut self.runs);
            out.clear();
            let mut by_group: Vec<(u32, u32, u32)> = runs.clone();
            by_group.sort_by_key(|&(g, start, _)| (g, start));
            for &(_, start, end) in &by_group {
                out.append_range(src, start as usize, end as usize);
            }
            self.runs = runs;
            return true;
        }
        out.clear();
        for &i in &self.perm {
            out.append_row(src, i as usize);
        }
        true
    }
}

/// An immutable view of rows of a [`StreamChunk`] — what one
/// [`crate::operator::Operator::process_chunk`] call sees: a single key
/// group's run after bucketing. Indices are slice-relative.
///
/// Two forms: a contiguous `start..end` range, or a *selection vector*
/// (row indices from [`ChunkSorter::perm`]) — the latter lets the data
/// plane bucket a chunk by group without ever materializing a sorted
/// copy.
#[derive(Debug, Clone, Copy)]
pub struct ChunkSlice<'a> {
    chunk: &'a StreamChunk,
    start: usize,
    end: usize,
    sel: Option<&'a [u32]>,
}

impl<'a> ChunkSlice<'a> {
    /// View of rows `start..end` of `chunk`.
    pub fn new(chunk: &'a StreamChunk, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= chunk.len());
        ChunkSlice {
            chunk,
            start,
            end,
            sel: None,
        }
    }

    /// View of the rows of `chunk` named by `sel`, in selection order.
    /// Selected rows must be visible (selections come from
    /// [`ChunkSorter::bucket`]).
    pub fn selected(chunk: &'a StreamChunk, sel: &'a [u32]) -> Self {
        debug_assert!(sel.iter().all(|&i| (i as usize) < chunk.len()));
        ChunkSlice {
            chunk,
            start: 0,
            end: sel.len(),
            sel: Some(sel),
        }
    }

    /// View of all rows of `chunk`.
    pub fn whole(chunk: &'a StreamChunk) -> Self {
        ChunkSlice::new(chunk, 0, chunk.len())
    }

    /// Chunk row index behind slice row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> usize {
        match self.sel {
            Some(sel) => sel[i] as usize,
            None => self.start + i,
        }
    }

    /// Number of rows in the slice (visible or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the slice spans no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` if slice row `i` is visible.
    #[inline]
    pub fn is_visible(&self, i: usize) -> bool {
        self.chunk.is_visible(self.row(i))
    }

    /// Key of slice row `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key {
        self.chunk.key_at(self.row(i))
    }

    /// Timestamp of slice row `i`.
    #[inline]
    pub fn ts_at(&self, i: usize) -> u64 {
        self.chunk.ts_at(self.row(i))
    }

    /// Materialize slice row `i`'s payload.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        self.chunk.value_at(self.row(i))
    }

    /// Materialize slice row `i` as a [`Tuple`].
    #[inline]
    pub fn tuple_at(&self, i: usize) -> Tuple {
        self.chunk.tuple_at(self.row(i))
    }
}

/// Collects the tuples an operator emits from one
/// [`crate::operator::Operator::process_chunk`] call, straight into columnar form.
#[derive(Debug, Default)]
pub struct ChunkEmissions {
    chunk: StreamChunk,
    /// Rows `chunk` held before this collector started (not counted).
    base: usize,
}

impl ChunkEmissions {
    /// Fresh empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector that emits after the rows `chunk` already holds — the
    /// runtime gathers several calls' emissions in one buffer; `len`
    /// counts only this collector's rows.
    pub fn appending(chunk: StreamChunk) -> Self {
        ChunkEmissions {
            base: chunk.len(),
            chunk,
        }
    }

    /// Emit one row without materializing a [`Tuple`].
    pub fn emit_raw(&mut self, key: Key, value: Value, ts: u64) {
        self.chunk.push(key, value, ts);
    }

    /// Emit one tuple.
    pub fn emit(&mut self, tuple: Tuple) {
        self.chunk.push_tuple(tuple);
    }

    /// Splice a whole input slice through unchanged (the pass-through
    /// fast path: a flat copy for contiguous slices, a single gather for
    /// selection-vector slices — no per-row materialization either way).
    pub fn emit_slice(&mut self, rows: &ChunkSlice<'_>) {
        self.chunk.append_slice(rows);
    }

    /// Number of emitted rows.
    pub fn len(&self) -> usize {
        self.chunk.len() - self.base
    }

    /// `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the chunk back, earlier rows and emitted rows alike (group
    /// column is unrouted: the splice fast path keeps stale upstream
    /// groups, so the dispatcher always re-assigns per downstream
    /// operator).
    pub fn into_chunk(self) -> StreamChunk {
        self.chunk
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::operator::Identity;
    use crate::topology::TopologyBuilder;

    fn sample_tuples() -> Vec<Tuple> {
        vec![
            Tuple::raw(1, Value::Int(10), 100),
            Tuple::raw(2, Value::Null, 101),
            Tuple::raw(3, Value::Float(0.5), 102),
            Tuple::raw(4, Value::Str("hello".into()), 103),
            Tuple::raw(5, Value::List(vec![Value::Int(1), Value::Null]), 104),
            Tuple::raw(1, Value::Str("world".into()), 105),
        ]
    }

    /// A fresh chunk's `Int` column is sized once, at its first `Int`
    /// row, to the chunk's row capacity: filling it never regrows it.
    #[test]
    fn the_first_int_row_reserves_the_payload_column() {
        let mut chunk = StreamChunk::with_capacity(64);
        chunk.push(0, Value::Str("s".into()), 0);
        assert_eq!(chunk.ints.capacity(), 0, "no Int yet, nothing reserved");
        chunk.push(1, Value::Int(1), 0);
        let reserved = chunk.ints.as_ptr();
        assert!(chunk.ints.capacity() >= 64);
        for i in 2..64 {
            chunk.push(i, Value::Int(i as i64), 0);
        }
        assert_eq!(chunk.ints.as_ptr(), reserved, "the column never moved");
    }

    #[test]
    fn rows_roundtrip_through_columns() {
        let tuples = sample_tuples();
        let chunk = StreamChunk::from_tuples(tuples.clone());
        assert_eq!(chunk.len(), tuples.len());
        assert_eq!(chunk.visible_len(), tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            assert_eq!(&chunk.tuple_at(i), t);
        }
        assert_eq!(chunk.to_tuples(), tuples);
    }

    #[test]
    fn assign_groups_matches_topology_lookup() {
        let mut b = TopologyBuilder::new();
        let src = b.source("s", 8, Arc::new(Identity));
        let dst = b.operator("d", 5, Arc::new(Identity));
        b.edge(src, dst);
        let t = b.build().unwrap();
        let mut chunk = StreamChunk::from_tuples(
            (0..100).map(|i| Tuple::raw(crate::tuple::hash_key(&i), Value::Int(i), 0)),
        );
        for op in [src, dst] {
            chunk.assign_groups(op, &t);
            for i in 0..chunk.len() {
                assert_eq!(
                    chunk.group_at(i),
                    t.group_for_key(op, chunk.key_at(i)).raw()
                );
            }
        }
    }

    #[test]
    fn visibility_masks_rows_and_compact_drops_them() {
        let mut chunk = StreamChunk::from_tuples(sample_tuples());
        chunk.hide(1);
        chunk.hide(4);
        chunk.hide(4); // idempotent
        assert_eq!(chunk.visible_len(), 4);
        assert!(!chunk.is_visible(1));
        assert!(chunk.is_visible(0));
        let visible = chunk.to_tuples();
        assert_eq!(visible.len(), 4);
        chunk.compact();
        assert_eq!(chunk.len(), 4);
        assert_eq!(chunk.visible_len(), 4);
        assert_eq!(chunk.to_tuples(), visible);
        // Pushing after compact keeps everything visible.
        chunk.push(9, Value::Int(9), 9);
        assert_eq!(chunk.visible_len(), 5);
    }

    #[test]
    fn append_range_splices_and_skips_hidden_rows() {
        let src = StreamChunk::from_tuples(sample_tuples());
        let mut out = StreamChunk::new();
        out.append_range(&src, 2, 5);
        assert_eq!(out.len(), 3);
        assert_eq!(out.tuple_at(0), src.tuple_at(2));
        assert_eq!(out.tuple_at(2), src.tuple_at(4));

        let mut masked = src.clone();
        masked.hide(3);
        let mut out = StreamChunk::new();
        out.append_range(&masked, 2, 6);
        assert_eq!(out.len(), 3);
        assert_eq!(out.tuple_at(1), src.tuple_at(4));
        assert_eq!(out.visible_len(), 3);
    }

    #[test]
    fn sorter_buckets_stably_by_group() {
        let mut chunk = StreamChunk::new();
        // Interleaved groups; payload encodes arrival order.
        for i in 0..20i64 {
            chunk.push(i as u64, Value::Int(i), i as u64);
        }
        // Route by key % 4 via a 1-op topology of 4 groups.
        let mut b = TopologyBuilder::new();
        let op = b.source("s", 4, Arc::new(Identity));
        let t = b.build().unwrap();
        chunk.assign_groups(op, &t);
        assert!(!chunk.groups_sorted());
        let mut sorter = ChunkSorter::new();
        let mut sorted = StreamChunk::new();
        assert!(sorter.sort_into(&chunk, 4, &mut sorted));
        assert_eq!(sorted.len(), 20);
        assert!(sorted.groups_sorted());
        // Stability: within each group, arrival (payload) order preserved.
        for w in 0..sorted.len() - 1 {
            if sorted.group_at(w) == sorted.group_at(w + 1) {
                assert!(sorted.tuple_at(w).value.as_int() < sorted.tuple_at(w + 1).value.as_int());
            }
        }
        // Already-sorted input short-circuits.
        let mut out2 = StreamChunk::new();
        assert!(!sorter.sort_into(&sorted, 4, &mut out2));
    }

    #[test]
    fn chunk_encode_decode_roundtrips() {
        let mut chunk = StreamChunk::from_tuples(sample_tuples());
        let mut b = TopologyBuilder::new();
        let op = b.source("s", 4, Arc::new(Identity));
        let t = b.build().unwrap();
        chunk.assign_groups(op, &t);
        chunk.hide(2);
        let mut w = Writer::new();
        chunk.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = StreamChunk::decode(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(decoded, chunk);
        assert_eq!(decoded.visible_len(), chunk.visible_len());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let chunk = StreamChunk::from_tuples(sample_tuples());
        let mut w = Writer::new();
        chunk.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(StreamChunk::decode(&mut r).is_err(), "cut at {cut}");
        }
        // Corrupt a tag byte (tags sit right after len + 3 u64 columns).
        let mut bad = bytes.clone();
        let tag_pos = 8 + chunk.len() * (8 + 8 + 4);
        bad[tag_pos] = 99;
        assert!(StreamChunk::decode(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn size_bytes_tracks_payload() {
        let small = StreamChunk::from_tuples(vec![Tuple::raw(1, Value::Int(1), 0)]);
        let big = StreamChunk::from_tuples(vec![Tuple::raw(
            1,
            Value::Str("a longer string payload".into()),
            0,
        )]);
        assert!(big.size_bytes() > small.size_bytes());
    }
}
