//! The benchmark-owned sink operator: counts every tuple it sees and keeps
//! a fixed-bucket latency histogram of the stamped ones in its key-group
//! state, so the histogram migrates, checkpoints and replays with the job
//! and is read back at the end through `probe_state`.
//!
//! A stamped tuple carries its *due* time (wall-clock nanoseconds) in
//! `ts`; unstamped tuples carry `ts == 0`. Latency is `now − due`, so a
//! generator running late counts against the system, as in any open loop.

use albic::engine::chunk::{ChunkEmissions, ChunkSlice};
use albic::engine::operator::{Emissions, Operator, StateBox};
use albic::engine::tuple::Tuple;

use crate::util::wall_ns;

/// Sub-buckets per power of two: bucket widths are 1/32 of their lower
/// bound (about 3 % resolution), from 1 ns up to the full `u64` range.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Number of histogram buckets.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Operator name of the unpadded sink (worker daemons resolve logic by
/// name, so each padding has its own name).
pub const SINK: &str = "perfbench-sink";
/// Operator name of the padded sink.
pub const PADDED_SINK: &str = "perfbench-padded-sink";
/// Serialized padding of the padded sink, so migrations and checkpoints
/// move a realistic amount of state per key group.
pub const PAD_BYTES: usize = 4096;

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let mantissa = (v >> shift) as usize; // in [SUB, 2·SUB)
    ((shift as usize + 1) << SUB_BITS) + (mantissa - SUB)
}

/// `[low, high)` of a bucket, in nanoseconds.
fn bucket_range(idx: usize) -> (f64, f64) {
    if idx < SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let shift = (idx >> SUB_BITS) - 1;
    let low = ((idx & (SUB - 1)) + SUB) as f64 * (1u64 << shift) as f64;
    (low, low + (1u64 << shift) as f64)
}

/// A fixed-bucket latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
        }
    }
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The `q`-quantile in milliseconds, interpolated linearly by rank
    /// inside its bucket; `None` when fewer than ten samples lie beyond
    /// it.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        let n = self.total();
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        if n == 0 || n - rank < 10 {
            return None;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (low, high) = bucket_range(idx);
                let within = (rank - seen) as f64 - 0.5;
                return Some((low + (high - low) * within / c as f64) / 1e6);
            }
            seen += c;
        }
        None
    }

    fn nonzero(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Sparse encoding: bucket count, then `(u16 index, u64 count)` pairs.
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.nonzero() as u32).to_le_bytes());
        for (idx, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            out.extend_from_slice(&(idx as u16).to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Option<(Histogram, &[u8])> {
        let n = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let mut rest = &bytes[4..];
        let mut h = Histogram::default();
        for _ in 0..n {
            let idx = u16::from_le_bytes(rest.get(..2)?.try_into().ok()?) as usize;
            let c = u64::from_le_bytes(rest.get(2..10)?.try_into().ok()?);
            *h.counts.get_mut(idx)? = c;
            rest = &rest[10..];
        }
        Some((h, rest))
    }
}

/// One sink key group's state: tuples counted and the stamped latencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SinkState {
    pub count: u64,
    pub latency: Histogram,
}

impl SinkState {
    /// Decode a `probe_state` / `serialize_state` image.
    pub fn decode(bytes: &[u8]) -> Option<SinkState> {
        let count = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
        let (latency, _padding) = Histogram::decode(&bytes[8..])?;
        Some(SinkState { count, latency })
    }
}

/// The latency sink. Emits nothing.
#[derive(Debug, Clone, Copy)]
pub struct LatencySink {
    padded: bool,
}

impl LatencySink {
    pub fn plain() -> Self {
        LatencySink { padded: false }
    }

    pub fn padded() -> Self {
        LatencySink { padded: true }
    }
}

fn state_mut(state: &mut StateBox) -> &mut SinkState {
    state.downcast_mut::<SinkState>().expect("sink state")
}

impl Operator for LatencySink {
    fn name(&self) -> &str {
        if self.padded {
            PADDED_SINK
        } else {
            SINK
        }
    }

    fn new_state(&self) -> StateBox {
        Box::new(SinkState::default())
    }

    fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
        let s = state.downcast_ref::<SinkState>().expect("sink state");
        let mut out = s.count.to_le_bytes().to_vec();
        s.latency.encode(&mut out);
        if self.padded {
            out.resize(out.len() + PAD_BYTES, (s.count % 251) as u8);
        }
        out
    }

    fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
        Box::new(SinkState::decode(bytes).expect("sink state image"))
    }

    /// The count and padding only: the histogram is measurement apparatus,
    /// and its size depends on timing, which must not reach the
    /// controller's memory-load model.
    fn state_size(&self, _state: &StateBox) -> usize {
        8 + if self.padded { PAD_BYTES } else { 0 }
    }

    fn process(&self, tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        let s = state_mut(state);
        s.count += 1;
        if tuple.ts != 0 {
            s.latency.record(wall_ns().saturating_sub(tuple.ts));
        }
    }

    fn process_chunk(
        &self,
        rows: &ChunkSlice<'_>,
        state: &mut StateBox,
        _out: &mut ChunkEmissions,
    ) {
        let s = state_mut(state);
        let mut now = None;
        for i in 0..rows.len() {
            if !rows.is_visible(i) {
                continue;
            }
            s.count += 1;
            let due = rows.ts_at(i);
            if due != 0 {
                let now = *now.get_or_insert_with(wall_ns);
                s.latency.record(now.saturating_sub(due));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_their_values() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            123_456,
            9_999_999_999,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "{v} -> {b}");
            let (lo, hi) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < hi || v == u64::MAX,
                "{v}: [{lo},{hi})"
            );
            last = b;
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_the_truth() {
        let mut h = Histogram::default();
        for us in 1..=2000u64 {
            h.record(us * 1000);
        }
        let p50 = h.quantile_ms(0.5).unwrap();
        assert!((p50 - 1.0).abs() < 0.04, "{p50}");
        let p99 = h.quantile_ms(0.99).unwrap();
        assert!((p99 - 1.98).abs() < 0.07, "{p99}");
    }

    #[test]
    fn state_roundtrips_with_and_without_padding() {
        for sink in [LatencySink::plain(), LatencySink::padded()] {
            let mut state = sink.new_state();
            let mut out = Emissions::new();
            for i in 0..100u64 {
                let ts = if i % 10 == 0 { wall_ns() - 5_000 } else { 0 };
                sink.process(
                    &Tuple::raw(i, albic::engine::Value::Int(1), ts),
                    &mut state,
                    &mut out,
                );
            }
            let bytes = sink.serialize_state(&state);
            let back = sink.deserialize_state(&bytes);
            let (a, b) = (
                state.downcast_ref::<SinkState>().unwrap(),
                back.downcast_ref::<SinkState>().unwrap(),
            );
            assert_eq!(a, b);
            assert_eq!(a.count, 100);
            assert_eq!(a.latency.total(), 10);
        }
    }
}
