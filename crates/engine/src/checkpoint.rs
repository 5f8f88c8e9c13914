//! Incremental, log-structured checkpoint storage with a spill tier for
//! cold key groups.
//!
//! PR 5's checkpoint was a monolithic all-state snapshot: O(total state)
//! capture cost at every checkpoint boundary, and the whole image pinned
//! in coordinator memory. This module replaces it with the log-structured
//! shape RisingWave's hummock shared-buffer/uploader uses: a **base
//! image** per key group plus a bounded stack of **delta layers**, where
//! each capture appends one layer holding only the groups that changed
//! since the previous capture (state serialization is whole-group, so a
//! "delta" is the newest serialized image of each dirty group and
//! newest-wins merging is exact, not approximate). When the stack exceeds
//! [`DEFAULT_MAX_DELTA_LAYERS`] it is folded into the base at the (already
//! quiesced) period boundary — capture cost per period is O(changed
//! state), compaction cost is amortized, and restore is still a single
//! `base + deltas` merge through the existing rollback/install path.
//!
//! The **spill tier** lets total state exceed coordinator memory: a key
//! group that has not been dirty for [`SpillConfig::cold_after`] periods
//! has its base image appended to one append-only **segment file** under
//! [`SpillConfig::dir`] and the in-memory bytes dropped. Each spilled
//! image is a self-checking record, `[group u32][len u32][checksum
//! u64][bytes]`, located by a [`SpillExtent`] (offset and length); a
//! capture appends all of its newly cold groups with one positioned
//! write, and un-spilling a redirtied group only drops its index entry.
//! The store owns every write — workers only *read* extents of the
//! segment to fault cold state back in on access, with one positioned
//! read that verifies the header ([`read_record`]), so a record that does
//! not check out is reported, never installed. Space is reclaimed without
//! a knob: once dead records outweigh live ones, a capture copies the
//! live records into a fresh segment (`spill-<gen>.seg`); the superseded
//! segment is unlinked only at the following rewrite, so a worker that
//! has not yet processed the newest extents still reads valid bytes and
//! the directory never holds more than two segments. A recovery rollback
//! ships only the hot (in-memory) images eagerly and hands workers the
//! spilled extents instead, which is what makes recovery time sublinear
//! in total state.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};

use crate::stats::FastHasher;

/// How [`crate::runtime::Runtime`] captures checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Every capture snapshots every key group's state (the PR 5
    /// behavior): simplest, O(total state) per checkpoint, and the
    /// differential oracle for [`CheckpointMode::Incremental`].
    #[default]
    Full,
    /// Captures snapshot only the key groups that changed since the last
    /// capture, appended as delta layers over a base image and compacted
    /// at period boundaries — O(changed state) per checkpoint, and the
    /// prerequisite for the cold-state spill tier.
    Incremental,
}

/// Spill-tier configuration: where cold key-group images go, and how many
/// periods without a write make a group cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory for the spill segment (created if missing), owned
    /// exclusively by the checkpoint store: it holds the current segment
    /// and at most one superseded one.
    pub dir: PathBuf,
    /// A group is spilled once it has not been dirty in any capture for
    /// this many periods. Must be at least 1.
    pub cold_after: u64,
}

/// How many delta layers may stack up before a capture folds them into
/// the base image (the period-boundary compaction schedule).
pub const DEFAULT_MAX_DELTA_LAYERS: usize = 4;

/// Bytes of a spill record's header: `[group u32][len u32][checksum u64]`.
pub const RECORD_HEADER: usize = 16;

/// Where one spilled group's image sits in the spill segment: its record
/// starts at `off`, and `len` payload bytes follow the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillExtent {
    /// The key group the record holds.
    pub group: u32,
    /// Offset of the record (its header) in the segment.
    pub off: u64,
    /// Payload bytes after the header.
    pub len: u32,
}

impl SpillExtent {
    /// Header plus payload bytes.
    fn record_len(&self) -> u64 {
        RECORD_HEADER as u64 + u64::from(self.len)
    }
}

/// What one [`CheckpointStore::ingest`] did, for period accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureOutcome {
    /// Key groups captured in this ingest.
    pub captured_groups: usize,
    /// Serialized bytes captured in this ingest (the O(delta) cost).
    pub captured_bytes: u64,
    /// Whether this ingest folded the delta stack into the base.
    pub compacted: bool,
}

/// A key group's base image: resident bytes, or a record in the spill
/// segment.
#[derive(Debug, Clone)]
enum GroupImage {
    Mem(Vec<u8>),
    Spilled { off: u64, len: u32 },
}

/// One capture's worth of changed groups (newest serialized images).
#[derive(Debug, Default)]
struct DeltaLayer {
    entries: BTreeMap<u32, Vec<u8>>,
}

/// The record checksum: the store's multiply-xor hash over the group id,
/// the payload as little-endian words and its length. Every step is a
/// bijection of the running value, so changing any one word always
/// changes the sum.
fn checksum(group: u32, bytes: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(0x414c_4249_435f_5350); // "ALBIC_SP": no all-zero record checks out
    h.write_u32(group);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h.write_u64(u64::from_le_bytes(w.try_into().unwrap()));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h.write_u64(u64::from_le_bytes(tail));
    h.write_u64(bytes.len() as u64);
    h.finish()
}

/// Append group `g`'s record to `out`.
fn put_record(out: &mut Vec<u8>, g: u32, bytes: &[u8]) {
    out.extend_from_slice(&g.to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(g, bytes).to_le_bytes());
    out.extend_from_slice(bytes);
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, off)
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], off: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, off)
}

#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(off))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
fn write_at(mut file: &File, buf: &[u8], off: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(off))?;
    file.write_all(buf)
}

/// Read the record at `ext` with one positioned read and verify its
/// header: a short read is `UnexpectedEof`, a header naming another
/// group or length, or a checksum mismatch, is `InvalidData`. Returns
/// the payload.
pub fn read_record(file: &File, ext: SpillExtent) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; ext.record_len() as usize];
    read_at(file, &mut buf, ext.off)?;
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    let sum = u64::from_le_bytes(buf[8..RECORD_HEADER].try_into().unwrap());
    if word(0) != ext.group
        || word(4) != ext.len
        || sum != checksum(ext.group, &buf[RECORD_HEADER..])
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "spill record of group {} at offset {} fails its header check",
                ext.group, ext.off
            ),
        ));
    }
    buf.drain(..RECORD_HEADER);
    Ok(buf)
}

/// A worker's read handle on the spill segment: the path the newest
/// spill message named, opened on the first fault-in and cached until a
/// message names another segment.
#[derive(Debug, Default)]
pub struct SegmentReader {
    path: Option<PathBuf>,
    file: Option<File>,
}

impl SegmentReader {
    /// Read extents of the segment at `path` from now on.
    pub fn point_at(&mut self, path: &Path) {
        if self.path.as_deref() != Some(path) {
            self.path = Some(path.to_path_buf());
            self.file = None;
        }
    }

    /// Read and verify one record (see [`read_record`]).
    pub fn read(&mut self, ext: SpillExtent) -> io::Result<Vec<u8>> {
        if self.file.is_none() {
            let path = self.path.as_ref().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, "no spill segment named yet")
            })?;
            self.file = Some(File::open(path)?);
        }
        read_record(self.file.as_ref().expect("opened above"), ext)
    }
}

/// Bytes a segment rewrite gathers before writing them out.
const REWRITE_CHUNK: usize = 1 << 20;

/// The store's side of the spill tier: the append-only segment it
/// writes, and the space accounting that decides when to rewrite it.
#[derive(Debug)]
struct Segment {
    cfg: SpillConfig,
    /// Generation of the current segment (its file name).
    gen: u64,
    /// The current segment, opened (created) at its first append.
    file: Option<File>,
    /// Append offset: bytes written to the current segment.
    end: u64,
    /// Bytes of the current segment's live records (headers included).
    live: u64,
    /// The segment superseded by the last rewrite. Workers that have
    /// not yet processed the newest extents may still read it, so it is
    /// unlinked only at the next rewrite.
    prev: Option<PathBuf>,
}

impl Segment {
    /// Copy the records at `extents` from the current segment to the
    /// start of `new`, pushing each one's new offset onto `offs`.
    fn copy_live(
        &self,
        extents: &[SpillExtent],
        new: &File,
        offs: &mut Vec<u64>,
    ) -> io::Result<()> {
        let old = self
            .file
            .as_ref()
            .expect("live records imply an open segment");
        let mut buf = Vec::new();
        let mut written = 0u64;
        for ext in extents {
            offs.push(written + buf.len() as u64);
            let at = buf.len();
            buf.resize(at + ext.record_len() as usize, 0);
            read_at(old, &mut buf[at..], ext.off)?;
            if buf.len() >= REWRITE_CHUNK {
                write_at(new, &buf, written)?;
                written += buf.len() as u64;
                buf.clear();
            }
        }
        write_at(new, &buf, written)
    }

    fn path(&self, gen: u64) -> PathBuf {
        self.cfg.dir.join(format!("spill-{gen}.seg"))
    }

    /// Open a fresh, empty segment file for generation `gen`.
    fn create(&self, gen: u64) -> io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path(gen))
    }

    /// Append `records` at the end with one positioned write, opening
    /// the segment first if this is its first write; returns the offset
    /// they start at. A failed write leaves the end where it was, so the
    /// next append overwrites any partial bytes.
    fn append(&mut self, records: &[u8]) -> io::Result<u64> {
        if self.file.is_none() {
            self.file = Some(self.create(self.gen)?);
        }
        let at = self.end;
        write_at(self.file.as_ref().expect("opened above"), records, at)?;
        self.end += records.len() as u64;
        self.live += records.len() as u64;
        Ok(at)
    }

    /// Copy the live records at `extents` into the next generation's
    /// segment, returning their new offsets in order. The copy goes
    /// through a buffer of at most [`REWRITE_CHUNK`] bytes past one
    /// record, so a rewrite never holds the spilled state in memory. The
    /// new file is only created when there is something to copy; with no
    /// live records the next append creates it. On failure nothing
    /// changes: the current segment stays in place.
    fn rewrite(&mut self, extents: &[SpillExtent]) -> io::Result<Vec<u64>> {
        let gen = self.gen + 1;
        let mut offs = Vec::with_capacity(extents.len());
        let mut file = None;
        if !extents.is_empty() {
            let new = self.create(gen)?;
            if let Err(e) = self.copy_live(extents, &new, &mut offs) {
                let _ = fs::remove_file(self.path(gen));
                return Err(e);
            }
            file = Some(new);
        }
        if let Some(prev) = self.prev.take() {
            let _ = fs::remove_file(prev);
        }
        if self.file.is_some() {
            self.prev = Some(self.path(self.gen));
        }
        self.gen = gen;
        self.file = file;
        self.end = self.live;
        Ok(offs)
    }
}

/// The log-structured checkpoint store: per-group base images plus a
/// bounded stack of delta layers, with an optional spill tier for cold
/// groups. Restore order is newest-layer-wins over the base.
#[derive(Debug)]
pub struct CheckpointStore {
    mode: CheckpointMode,
    base: BTreeMap<u32, GroupImage>,
    layers: VecDeque<DeltaLayer>,
    max_layers: usize,
    /// Period of the newest completed capture.
    period: Option<u64>,
    /// Period of the last capture in which each group appeared dirty.
    last_dirty: BTreeMap<u32, u64>,
    /// Groups whose base image currently lives in the spill segment.
    spilled: BTreeSet<u32>,
    spill: Option<Segment>,
    /// Set when a capture was abandoned mid-gather (a worker died after
    /// some peers had already drained their dirty sets): the next capture
    /// must be full, or the drained-but-uncommitted changes would be lost.
    force_full: bool,
    /// Spill writes that failed since the last [`Self::take_failures`].
    failures: u64,
}

impl CheckpointStore {
    /// An empty store. With `spill` set, the directory is created eagerly
    /// so capture-time writes cannot fail on a missing parent; a
    /// directory that cannot be created is an error here, not a spill
    /// tier whose every write later fails unseen. The segment file itself
    /// is created at the first spill.
    pub fn new(
        mode: CheckpointMode,
        max_layers: usize,
        spill: Option<SpillConfig>,
    ) -> io::Result<Self> {
        if let Some(cfg) = &spill {
            fs::create_dir_all(&cfg.dir)?;
        }
        Ok(CheckpointStore {
            mode,
            base: BTreeMap::new(),
            layers: VecDeque::new(),
            max_layers: max_layers.max(1),
            period: None,
            last_dirty: BTreeMap::new(),
            spilled: BTreeSet::new(),
            spill: spill.map(|cfg| Segment {
                cfg,
                gen: 0,
                file: None,
                end: 0,
                live: 0,
                prev: None,
            }),
            force_full: false,
            failures: 0,
        })
    }

    /// The configured capture mode.
    pub fn mode(&self) -> CheckpointMode {
        self.mode
    }

    /// The period of the newest completed capture, if any.
    pub fn period(&self) -> Option<u64> {
        self.period
    }

    /// `true` if no capture has completed yet.
    pub fn is_empty(&self) -> bool {
        self.period.is_none()
    }

    /// Whether the next capture must snapshot *all* state: always in
    /// [`CheckpointMode::Full`], and in incremental mode for the first
    /// capture and after an abandoned one.
    pub fn wants_full(&self) -> bool {
        self.mode == CheckpointMode::Full || self.force_full || self.period.is_none()
    }

    /// A capture was abandoned after the fan-out (a worker died before
    /// replying): peers that did reply have already drained their dirty
    /// sets, so the next capture is forced full.
    pub fn abandon(&mut self) {
        self.force_full = true;
    }

    /// Commit one capture. `full` must match what [`Self::wants_full`]
    /// said when the snapshot was requested: a full capture replaces the
    /// base wholesale, a delta capture appends one layer of changed
    /// groups (compacting when the stack exceeds its bound) — then the
    /// spill pass appends any group that has gone cold, and the segment
    /// is rewritten if dead records have come to outweigh live ones.
    pub fn ingest(
        &mut self,
        period: u64,
        states: Vec<(u32, Vec<u8>)>,
        full: bool,
    ) -> CaptureOutcome {
        let mut out = CaptureOutcome {
            captured_groups: states.len(),
            captured_bytes: states.iter().map(|(_, b)| b.len() as u64).sum(),
            compacted: false,
        };
        let mut respill = Vec::new();
        if full {
            self.layers.clear();
            let mut new_base: BTreeMap<u32, GroupImage> = states
                .into_iter()
                .map(|(g, b)| (g, GroupImage::Mem(b)))
                .collect();
            // Groups already on the spill tier stay there: a spilled
            // group is by definition clean, and workers hold lazily
            // faulting marks against its record, which un-spilling here
            // would leave without a resident copy anywhere.
            for g in std::mem::take(&mut self.spilled) {
                let old = self.base.remove(&g);
                match new_base.entry(g) {
                    // The capture's bytes are the newest image (the group
                    // may have been faulted in and redirtied since it
                    // spilled): its old record is dead, and the fresh
                    // bytes are appended below before they leave memory.
                    Entry::Occupied(_) => {
                        self.release(old);
                        respill.push(g);
                    }
                    // Absent from the capture (its worker could not read
                    // the record back): the old record carries over.
                    Entry::Vacant(slot) => {
                        if let Some(old) = old {
                            slot.insert(old);
                            self.spilled.insert(g);
                        }
                    }
                }
            }
            self.base = new_base;
            self.last_dirty = self.base.keys().map(|&g| (g, period)).collect();
            self.force_full = false;
        } else {
            let mut layer = DeltaLayer::default();
            for (g, bytes) in states {
                // A dirty group is no longer cold: its record is stale as
                // of this capture. Dropping the index entry is all it
                // takes; the bytes are reclaimed by the next rewrite.
                if self.spilled.remove(&g) {
                    let old = self.base.remove(&g);
                    self.release(old);
                }
                self.last_dirty.insert(g, period);
                layer.entries.insert(g, bytes);
            }
            self.layers.push_back(layer);
            if self.layers.len() >= self.max_layers {
                self.compact();
                out.compacted = true;
            }
        }
        self.period = Some(period);
        self.spill_cold(period, respill);
        self.reclaim();
        out
    }

    /// Account an un-spilled group's record as dead.
    fn release(&mut self, img: Option<GroupImage>) {
        if let (Some(GroupImage::Spilled { len, .. }), Some(seg)) = (img, &mut self.spill) {
            seg.live -= RECORD_HEADER as u64 + u64::from(len);
        }
    }

    /// Fold every delta layer into the base, newest layer winning per
    /// group. Runs at a period boundary (the store is coordinator-local,
    /// so "background" here means amortized off the capture hot path).
    fn compact(&mut self) {
        for layer in self.layers.drain(..) {
            for (g, bytes) in layer.entries {
                self.base.insert(g, GroupImage::Mem(bytes));
            }
        }
    }

    /// Append the base image of every group that has gone cold, plus the
    /// `respill` groups a full capture refreshed, with one positioned
    /// write. Only base-resident groups spill: a group whose newest image
    /// still sits in a delta layer stays in memory until compaction folds
    /// it down. A failed write keeps the groups resident (never lossy)
    /// and counts each of them as a spill failure.
    fn spill_cold(&mut self, period: u64, mut groups: Vec<u32>) {
        let Some(seg) = &mut self.spill else {
            return;
        };
        groups.extend(
            self.base
                .iter()
                .filter(|(g, img)| {
                    matches!(img, GroupImage::Mem(_))
                        && period.saturating_sub(self.last_dirty.get(g).copied().unwrap_or(0))
                            >= seg.cfg.cold_after
                })
                .map(|(&g, _)| g)
                .filter(|g| !self.layers.iter().any(|l| l.entries.contains_key(g))),
        );
        groups.sort_unstable();
        groups.dedup();
        let mut records = Vec::new();
        let mut placed = Vec::with_capacity(groups.len());
        for g in groups {
            let Some(GroupImage::Mem(bytes)) = self.base.get(&g) else {
                continue;
            };
            let Ok(len) = u32::try_from(bytes.len()) else {
                // Beyond what a record header can describe.
                self.failures += 1;
                continue;
            };
            placed.push((g, records.len() as u64, len));
            put_record(&mut records, g, bytes);
        }
        if placed.is_empty() {
            return;
        }
        match seg.append(&records) {
            Ok(at) => {
                for (g, rel, len) in placed {
                    self.base
                        .insert(g, GroupImage::Spilled { off: at + rel, len });
                    self.spilled.insert(g);
                }
            }
            Err(_) => self.failures += placed.len() as u64,
        }
    }

    /// Once dead records outweigh live ones, copy the live records into
    /// a fresh segment. A failed rewrite keeps the current segment (and
    /// every extent) as it was and counts one spill failure; the next
    /// capture tries again.
    fn reclaim(&mut self) {
        match &self.spill {
            Some(seg) if seg.end - seg.live > seg.live => {}
            _ => return,
        }
        let extents = self.spilled_extents();
        let seg = self.spill.as_mut().expect("checked above");
        match seg.rewrite(&extents) {
            Ok(offs) => {
                for (ext, off) in extents.iter().zip(offs) {
                    self.base
                        .insert(ext.group, GroupImage::Spilled { off, len: ext.len });
                }
            }
            Err(_) => self.failures += 1,
        }
    }

    /// The hot restore set: newest-wins merge of resident base images and
    /// every delta layer, sorted by group id. Spilled groups are *not*
    /// included — recovery leaves them on disk to be faulted in on
    /// access, which is what keeps restore cost sublinear in total state.
    pub fn hot_states(&self) -> Vec<(u32, Vec<u8>)> {
        let mut merged: BTreeMap<u32, &Vec<u8>> = BTreeMap::new();
        for (&g, img) in &self.base {
            if let GroupImage::Mem(bytes) = img {
                merged.insert(g, bytes);
            }
        }
        for layer in &self.layers {
            for (&g, bytes) in &layer.entries {
                merged.insert(g, bytes);
            }
        }
        merged.into_iter().map(|(g, b)| (g, b.clone())).collect()
    }

    /// Where every spilled group's record sits in the current segment,
    /// sorted by group.
    pub fn spilled_extents(&self) -> Vec<SpillExtent> {
        self.spilled
            .iter()
            .filter_map(|&group| match self.base.get(&group) {
                Some(&GroupImage::Spilled { off, len }) => Some(SpillExtent { group, off, len }),
                _ => None,
            })
            .collect()
    }

    /// Number of groups currently on the spill tier.
    pub fn spilled_count(&self) -> usize {
        self.spilled.len()
    }

    /// The current spill segment's path (the file the extents of
    /// [`Self::spilled_extents`] point into), if the tier is configured.
    pub fn segment_path(&self) -> Option<PathBuf> {
        self.spill.as_ref().map(|seg| seg.path(seg.gen))
    }

    /// Spill failures since the last call: writes that kept their groups
    /// resident and segment rewrites that could not complete.
    pub fn take_failures(&mut self) -> u64 {
        std::mem::take(&mut self.failures)
    }

    /// Un-compacted bytes across all delta layers.
    pub fn delta_bytes(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| l.entries.values())
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Total bytes of the state the checkpoint represents: the
    /// newest-wins image of every group (resident or spilled), each
    /// counted once even while older copies await compaction.
    pub fn total_bytes(&self) -> u64 {
        let mut newest: BTreeMap<u32, u64> = self
            .base
            .iter()
            .map(|(&g, img)| match img {
                GroupImage::Mem(b) => (g, b.len() as u64),
                GroupImage::Spilled { len, .. } => (g, u64::from(*len)),
            })
            .collect();
        for layer in &self.layers {
            for (&g, bytes) in &layer.entries {
                newest.insert(g, bytes.len() as u64);
            }
        }
        newest.values().sum()
    }

    /// The complete restore image — hot states plus spilled records read
    /// back in — sorted by group id. The full-snapshot oracle for the
    /// incremental path (tests), and the bulk export for tooling; the
    /// recovery hot path uses [`Self::hot_states`] instead. A record that
    /// cannot be read back, or fails its header check, is an error.
    pub fn full_states(&self) -> io::Result<Vec<(u32, Vec<u8>)>> {
        let mut all = self.hot_states();
        let extents = self.spilled_extents();
        if !extents.is_empty() {
            let file = self
                .spill
                .as_ref()
                .and_then(|seg| seg.file.as_ref())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "spill segment missing"))?;
            for ext in extents {
                all.push((ext.group, read_record(file, ext)?));
            }
        }
        all.sort_unstable_by_key(|(g, _)| *g);
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "albic-checkpoint-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn bytes(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    fn spill_store(dir: &Path, max_layers: usize, cold_after: u64) -> CheckpointStore {
        CheckpointStore::new(
            CheckpointMode::Incremental,
            max_layers,
            Some(SpillConfig {
                dir: dir.to_path_buf(),
                cold_after,
            }),
        )
        .unwrap()
    }

    /// Files in the spill directory.
    fn files_in(dir: &Path) -> usize {
        fs::read_dir(dir).map_or(0, |d| d.count())
    }

    /// Length of the current segment file (0 before it is created).
    fn segment_len(s: &CheckpointStore) -> u64 {
        fs::metadata(s.segment_path().unwrap()).map_or(0, |m| m.len())
    }

    #[test]
    fn delta_layers_merge_newest_wins_over_base() {
        let mut s = CheckpointStore::new(CheckpointMode::Incremental, 8, None).unwrap();
        assert!(s.wants_full());
        s.ingest(0, vec![(1, bytes(1, 4)), (2, bytes(2, 4))], true);
        assert!(!s.wants_full());
        s.ingest(1, vec![(2, bytes(20, 4))], false);
        s.ingest(2, vec![(2, bytes(21, 4)), (3, bytes(3, 4))], false);
        let all = s.full_states().unwrap();
        assert_eq!(
            all,
            vec![(1, bytes(1, 4)), (2, bytes(21, 4)), (3, bytes(3, 4)),]
        );
        assert_eq!(s.delta_bytes(), 12);
        assert_eq!(s.period(), Some(2));
    }

    #[test]
    fn compaction_folds_layers_into_base_and_preserves_the_image() {
        let mut s = CheckpointStore::new(CheckpointMode::Incremental, 2, None).unwrap();
        s.ingest(0, vec![(1, bytes(1, 4))], true);
        s.ingest(1, vec![(1, bytes(10, 4))], false);
        let out = s.ingest(2, vec![(2, bytes(2, 4))], false);
        assert!(out.compacted, "second layer must trigger compaction");
        assert_eq!(s.delta_bytes(), 0);
        assert_eq!(
            s.full_states().unwrap(),
            vec![(1, bytes(10, 4)), (2, bytes(2, 4))]
        );
    }

    #[test]
    fn abandoned_capture_forces_the_next_one_full() {
        let mut s = CheckpointStore::new(CheckpointMode::Incremental, 8, None).unwrap();
        s.ingest(0, vec![(1, bytes(1, 4))], true);
        assert!(!s.wants_full());
        s.abandon();
        assert!(s.wants_full());
        s.ingest(1, vec![(2, bytes(2, 4))], true);
        assert!(!s.wants_full());
        // The full capture replaced the base: group 1 is gone.
        assert_eq!(s.full_states().unwrap(), vec![(2, bytes(2, 4))]);
    }

    #[test]
    fn cold_groups_spill_to_disk_and_fault_back_into_the_full_image() {
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 8, 2);
        s.ingest(0, vec![(1, bytes(1, 64)), (2, bytes(2, 64))], true);
        assert_eq!(s.spilled_count(), 0);
        assert_eq!(
            files_in(&dir),
            0,
            "the segment is created at the first spill"
        );
        // Group 2 stays dirty; group 1 goes cold after 2 quiet periods.
        s.ingest(1, vec![(2, bytes(20, 64))], false);
        s.ingest(2, vec![(2, bytes(21, 64))], false);
        assert_eq!(
            s.spilled_extents(),
            vec![SpillExtent {
                group: 1,
                off: 0,
                len: 64
            }]
        );
        assert_eq!(segment_len(&s), (RECORD_HEADER + 64) as u64);
        // Hot restore excludes the spilled group; the full image does not.
        assert!(s.hot_states().iter().all(|(g, _)| *g != 1));
        assert_eq!(
            s.full_states().unwrap(),
            vec![(1, bytes(1, 64)), (2, bytes(21, 64))]
        );
        assert_eq!(
            s.total_bytes(),
            s.full_states()
                .unwrap()
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_redirtied_group_unspills_by_dropping_its_index_entry() {
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 8, 1);
        s.ingest(0, vec![(1, bytes(1, 16))], true);
        s.ingest(1, vec![], false);
        let old = s.spilled_extents();
        let old_path = s.segment_path().unwrap();
        assert_eq!(old.len(), 1);
        s.ingest(2, vec![(1, bytes(9, 16))], false);
        assert_eq!(s.spilled_count(), 0);
        assert_eq!(s.full_states().unwrap(), vec![(1, bytes(9, 16))]);
        // The stale record was only dropped from the index: the old
        // segment still holds it, intact, for a worker that has not yet
        // heard of the un-spill.
        let mut r = SegmentReader::default();
        r.point_at(&old_path);
        assert_eq!(r.read(old[0]).unwrap(), bytes(1, 16));
        assert!(files_in(&dir) <= 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn random_capture_sequence_matches_a_hash_map_oracle() {
        // A miniature deterministic fuzz: interleaved full/delta captures
        // with compaction, spill and segment rewrites must always
        // reproduce the oracle map.
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 3, 2);
        let mut oracle: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut segments = BTreeSet::new();
        let mut seed = 7u64;
        for period in 0..120u64 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let full = s.wants_full();
            let groups: Vec<u32> = (0..8u32).filter(|g| full || (seed >> g) & 1 == 1).collect();
            let states: Vec<(u32, Vec<u8>)> = groups
                .iter()
                .map(|&g| (g, bytes((seed as u8).wrapping_add(g as u8), 8 + g as usize)))
                .collect();
            if full {
                oracle = states.iter().cloned().collect();
            } else {
                for (g, b) in &states {
                    oracle.insert(*g, b.clone());
                }
            }
            s.ingest(period, states, full);
            if period % 11 == 10 {
                s.abandon();
            }
            let mut want: Vec<(u32, Vec<u8>)> =
                oracle.iter().map(|(g, b)| (*g, b.clone())).collect();
            want.sort_unstable_by_key(|(g, _)| *g);
            assert_eq!(s.full_states().unwrap(), want, "period {period}");
            assert!(files_in(&dir) <= 2, "period {period}");
            segments.insert(s.segment_path().unwrap());
        }
        assert!(
            segments.len() > 3,
            "only {} segment generations: the sequence must cross at least 3 rewrites",
            segments.len()
        );
        assert_eq!(s.take_failures(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_segment_stays_within_twice_its_live_bytes_over_500_cycles() {
        // Every period redirties a sliding pair of groups (un-spilling
        // them) and spills the pair dirtied the period before: with no
        // reclamation the segment would grow by two records a period.
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 1, 1);
        let size = |g: u32, p: u64| 100 + ((p * 37 + u64::from(g) * 11) % 4000) as usize;
        let max_record = (RECORD_HEADER + 100 + 3999) as u64;
        let mut oracle: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for p in 0..500u64 {
            let full = s.wants_full();
            let groups: Vec<u32> = if full {
                (0..6).collect()
            } else {
                vec![(p % 6) as u32, ((p + 1) % 6) as u32]
            };
            let states: Vec<(u32, Vec<u8>)> = groups
                .iter()
                .map(|&g| (g, bytes((p as u8) ^ (g as u8), size(g, p))))
                .collect();
            oracle.extend(states.iter().cloned());
            s.ingest(p, states, full);
            let live: u64 = s.spilled_extents().iter().map(|e| e.record_len()).sum();
            assert!(
                segment_len(&s) <= 2 * live + max_record,
                "period {p}: segment {} bytes for {live} live",
                segment_len(&s)
            );
            assert!(files_in(&dir) <= 2, "period {p}");
            assert!(
                p == 0 || s.spilled_count() >= 2,
                "period {p}: the cycle spills"
            );
        }
        assert_eq!(
            s.full_states().unwrap(),
            oracle.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(s.take_failures(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn extents_of_the_previous_spill_message_survive_one_rewrite() {
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 1, 1);
        let img = |g: u32, v: u8| (g, bytes(v, 64 + g as usize));
        s.ingest(0, vec![img(1, 1), img(2, 2), img(3, 3)], true);
        s.ingest(1, vec![], false);
        let (old_path, old) = (s.segment_path().unwrap(), s.spilled_extents());
        assert_eq!(old.len(), 3);
        // Two of three records die: the capture rewrites the segment.
        s.ingest(2, vec![img(1, 10), img(2, 20)], false);
        assert_ne!(s.segment_path().unwrap(), old_path, "no rewrite");
        let mut r = SegmentReader::default();
        r.point_at(&old_path);
        for (ext, v) in old.iter().zip([1, 2, 3]) {
            assert_eq!(r.read(*ext).unwrap(), img(ext.group, v).1);
        }
        // The new segment's extents read through the same reader once it
        // is pointed there.
        r.point_at(&s.segment_path().unwrap());
        for ext in s.spilled_extents() {
            assert_eq!(r.read(ext).unwrap(), img(3, 3).1);
        }
        // The next rewrite unlinks the segment superseded by this one.
        s.ingest(3, vec![img(3, 30)], false);
        s.ingest(4, vec![img(1, 11), img(2, 21)], false);
        assert!(
            !old_path.exists(),
            "the superseded segment outlived a second rewrite"
        );
        assert!(files_in(&dir) <= 2);
        assert_eq!(
            s.full_states().unwrap(),
            vec![img(1, 11), img(2, 21), img(3, 30)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rewrite_larger_than_its_copy_buffer_keeps_every_record() {
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 1, 1);
        let img = |g: u32, v: u8| (g, bytes(v, 300_000 + 10_000 * g as usize));
        s.ingest(0, (0..8).map(|g| img(g, g as u8)).collect(), true);
        s.ingest(1, vec![], false);
        let old_path = s.segment_path().unwrap();
        // Five of eight records die; the three survivors (over 1 MiB)
        // are copied in more than one buffer's worth.
        s.ingest(2, (0..5).map(|g| img(g, 50 + g as u8)).collect(), false);
        assert_ne!(s.segment_path().unwrap(), old_path, "no rewrite");
        let live: u64 = s.spilled_extents().iter().map(|e| e.record_len()).sum();
        assert!(live > REWRITE_CHUNK as u64);
        assert_eq!(segment_len(&s), live);
        let want: Vec<(u32, Vec<u8>)> = (0..8)
            .map(|g| img(g, if g < 5 { 50 + g as u8 } else { g as u8 }))
            .collect();
        assert_eq!(s.full_states().unwrap(), want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_or_truncated_record_fails_its_read() {
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 1, 1);
        s.ingest(0, vec![(1, bytes(1, 40)), (2, bytes(2, 40))], true);
        s.ingest(1, vec![], false);
        let ext = s.spilled_extents();
        let path = s.segment_path().unwrap();
        let mut r = SegmentReader::default();
        r.point_at(&path);
        // A header naming another group does not check out.
        let other = SpillExtent { group: 9, ..ext[0] };
        assert_eq!(
            r.read(other).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // One flipped payload byte fails the checksum.
        let mut seg = fs::read(&path).unwrap();
        seg[RECORD_HEADER + 7] ^= 0x20;
        fs::write(&path, &seg).unwrap();
        assert_eq!(
            r.read(ext[0]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(r.read(ext[1]).unwrap(), bytes(2, 40));
        assert!(s.full_states().is_err());
        // A segment cut short is a short read.
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(ext[1].off + 20)
            .unwrap();
        assert_eq!(
            r.read(ext[1]).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_spill_write_keeps_the_groups_resident_and_is_counted() {
        let dir = tmp_dir();
        let mut s = spill_store(&dir, 1, 1);
        s.ingest(0, vec![(1, bytes(1, 8)), (2, bytes(2, 8))], true);
        // The directory vanishes before the segment is first created.
        fs::remove_dir_all(&dir).unwrap();
        s.ingest(1, vec![], false);
        assert_eq!(s.spilled_count(), 0);
        assert_eq!(s.take_failures(), 2);
        assert_eq!(s.take_failures(), 0, "failures are reported once");
        assert_eq!(s.hot_states(), vec![(1, bytes(1, 8)), (2, bytes(2, 8))]);
        // Once the directory is back, the next capture spills them.
        fs::create_dir_all(&dir).unwrap();
        s.ingest(2, vec![], false);
        assert_eq!(s.spilled_count(), 2);
        assert_eq!(s.take_failures(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
