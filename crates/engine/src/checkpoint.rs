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
//! has its base image written to a file under [`SpillConfig::dir`] and
//! the in-memory bytes dropped. The store owns these files exclusively —
//! workers *read* them to fault cold state back in on access, but only
//! the store ever writes or deletes them (always at a quiesced capture
//! boundary), so a file on disk is always the group's newest *captured*
//! image. A recovery rollback ships only the hot (in-memory) images
//! eagerly and hands workers the spilled-group list instead, which is
//! what makes recovery time sublinear in total state.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
    /// Directory for spilled group images (created if missing). One file
    /// per cold group, owned exclusively by the checkpoint store.
    pub dir: PathBuf,
    /// A group is spilled once it has not been dirty in any capture for
    /// this many periods. Must be at least 1.
    pub cold_after: u64,
}

/// How many delta layers may stack up before a capture folds them into
/// the base image (the period-boundary compaction schedule).
pub const DEFAULT_MAX_DELTA_LAYERS: usize = 4;

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

/// A key group's base image: resident bytes, or a spill-file reference.
#[derive(Debug, Clone)]
enum GroupImage {
    Mem(Vec<u8>),
    Spilled { len: u64 },
}

/// One capture's worth of changed groups (newest serialized images).
#[derive(Debug, Default)]
struct DeltaLayer {
    entries: BTreeMap<u32, Vec<u8>>,
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
    /// Groups whose base image currently lives on disk.
    spilled: BTreeSet<u32>,
    spill: Option<SpillConfig>,
    /// Set when a capture was abandoned mid-gather (a worker died after
    /// some peers had already drained their dirty sets): the next capture
    /// must be full, or the drained-but-uncommitted changes would be lost.
    force_full: bool,
}

/// The spill file holding group `g`'s newest captured image.
pub fn spill_file(dir: &Path, g: u32) -> PathBuf {
    dir.join(format!("group-{g:08}.state"))
}

impl CheckpointStore {
    /// An empty store. With `spill` set, the directory is created eagerly
    /// so capture-time writes cannot fail on a missing parent; a
    /// directory that cannot be created is an error here, not a spill
    /// tier whose every write later fails unseen.
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
            spill,
            force_full: false,
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
    /// spill pass writes out any group that has gone cold.
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
        if full {
            self.layers.clear();
            let mut new_base: BTreeMap<u32, GroupImage> = states
                .into_iter()
                .map(|(g, b)| (g, GroupImage::Mem(b)))
                .collect();
            // Groups already on the spill tier stay there: a spilled
            // group is by definition clean, so its file is still its
            // newest image — and workers hold lazily-faulting marks
            // against those files, which deleting here would invalidate
            // while no worker has a resident copy.
            let mut still_spilled = BTreeSet::new();
            for &g in &self.spilled {
                match new_base.get_mut(&g) {
                    Some(img) => {
                        // The capture's bytes are the newest image (the
                        // group may have been faulted in and redirtied
                        // since it spilled), so the file is refreshed
                        // before the bytes are dropped from memory. A
                        // failed write keeps the group resident instead.
                        let GroupImage::Mem(bytes) = img else {
                            continue;
                        };
                        if let Some(cfg) = &self.spill {
                            if fs::write(spill_file(&cfg.dir, g), &*bytes).is_ok() {
                                let len = bytes.len() as u64;
                                *img = GroupImage::Spilled { len };
                                still_spilled.insert(g);
                            }
                        }
                    }
                    // Absent from the capture (its worker could not read
                    // the file back): the old spilled entry, whose file
                    // is untouched, carries over.
                    None => {
                        if let Some(old) = self.base.remove(&g) {
                            new_base.insert(g, old);
                            still_spilled.insert(g);
                        }
                    }
                }
            }
            self.spilled = still_spilled;
            self.base = new_base;
            self.last_dirty = self.base.keys().map(|&g| (g, period)).collect();
            self.force_full = false;
        } else {
            let mut layer = DeltaLayer::default();
            for (g, bytes) in states {
                // A dirty group is no longer cold: its file (if any) is
                // stale as of this capture and must not outlive it.
                if self.spilled.remove(&g) {
                    if let Some(cfg) = &self.spill {
                        let _ = fs::remove_file(spill_file(&cfg.dir, g));
                    }
                    self.base.remove(&g);
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
        self.spill_cold(period);
        out
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

    /// Write out the base image of every group that has gone cold. Only
    /// base-resident groups spill: a group whose newest image still sits
    /// in a delta layer stays in memory until compaction folds it down.
    /// A failed write keeps the group resident (never lossy).
    fn spill_cold(&mut self, period: u64) {
        let Some(cfg) = self.spill.clone() else {
            return;
        };
        let in_layers: BTreeSet<u32> = self
            .layers
            .iter()
            .flat_map(|l| l.entries.keys().copied())
            .collect();
        let cold: Vec<u32> = self
            .base
            .iter()
            .filter(|(g, img)| matches!(img, GroupImage::Mem(_)) && !in_layers.contains(g))
            .map(|(&g, _)| g)
            .filter(|g| {
                period.saturating_sub(self.last_dirty.get(g).copied().unwrap_or(0))
                    >= cfg.cold_after
            })
            .collect();
        for g in cold {
            let Some(GroupImage::Mem(bytes)) = self.base.get(&g) else {
                continue;
            };
            if fs::write(spill_file(&cfg.dir, g), bytes).is_ok() {
                let len = bytes.len() as u64;
                self.base.insert(g, GroupImage::Spilled { len });
                self.spilled.insert(g);
            }
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

    /// Every group currently on the spill tier, sorted.
    pub fn spilled_ids(&self) -> Vec<u32> {
        self.spilled.iter().copied().collect()
    }

    /// Number of groups currently on the spill tier.
    pub fn spilled_count(&self) -> usize {
        self.spilled.len()
    }

    /// The spill directory, if the tier is configured.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill.as_ref().map(|c| c.dir.as_path())
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
                GroupImage::Spilled { len } => (g, *len),
            })
            .collect();
        for layer in &self.layers {
            for (&g, bytes) in &layer.entries {
                newest.insert(g, bytes.len() as u64);
            }
        }
        newest.values().sum()
    }

    /// The complete restore image — hot states plus spilled files read
    /// back in — sorted by group id. The full-snapshot oracle for the
    /// incremental path (tests), and the bulk export for tooling; the
    /// recovery hot path uses [`Self::hot_states`] instead.
    pub fn full_states(&self) -> io::Result<Vec<(u32, Vec<u8>)>> {
        let mut all = self.hot_states();
        if let Some(cfg) = &self.spill {
            for &g in &self.spilled {
                all.push((g, fs::read(spill_file(&cfg.dir, g))?));
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
        let mut s = CheckpointStore::new(
            CheckpointMode::Incremental,
            8,
            Some(SpillConfig {
                dir: dir.clone(),
                cold_after: 2,
            }),
        )
        .unwrap();
        s.ingest(0, vec![(1, bytes(1, 64)), (2, bytes(2, 64))], true);
        assert_eq!(s.spilled_count(), 0);
        // Group 2 stays dirty; group 1 goes cold after 2 quiet periods.
        s.ingest(1, vec![(2, bytes(20, 64))], false);
        s.ingest(2, vec![(2, bytes(21, 64))], false);
        assert_eq!(s.spilled_ids(), vec![1]);
        assert!(spill_file(&dir, 1).exists());
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
    fn a_redirtied_group_unspills_and_its_stale_file_is_removed() {
        let dir = tmp_dir();
        let mut s = CheckpointStore::new(
            CheckpointMode::Incremental,
            8,
            Some(SpillConfig {
                dir: dir.clone(),
                cold_after: 1,
            }),
        )
        .unwrap();
        s.ingest(0, vec![(1, bytes(1, 16))], true);
        s.ingest(1, vec![], false);
        assert_eq!(s.spilled_ids(), vec![1]);
        s.ingest(2, vec![(1, bytes(9, 16))], false);
        assert_eq!(s.spilled_count(), 0);
        assert!(!spill_file(&dir, 1).exists(), "stale spill file survived");
        assert_eq!(s.full_states().unwrap(), vec![(1, bytes(9, 16))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn random_capture_sequence_matches_a_hash_map_oracle() {
        // A miniature deterministic fuzz: interleaved full/delta captures
        // with compaction and spill must always reproduce the oracle map.
        let dir = tmp_dir();
        let mut s = CheckpointStore::new(
            CheckpointMode::Incremental,
            3,
            Some(SpillConfig {
                dir: dir.clone(),
                cold_after: 2,
            }),
        )
        .unwrap();
        let mut oracle: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut seed = 7u64;
        for period in 0..40u64 {
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
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
