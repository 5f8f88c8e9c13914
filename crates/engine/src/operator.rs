//! The operator abstraction.
//!
//! Operator semantics are opaque to the system (§4.3.2): the engine only
//! knows that each operator partitions its input by key into key groups,
//! each with independent state `σ_k` that can be serialized for migration.
//! User logic implements [`Operator`]; the engine owns scheduling, routing,
//! statistics and state movement.

use std::any::Any;

use crate::chunk::{ChunkEmissions, ChunkSlice};
use crate::tuple::Tuple;

/// Opaque per-key-group state. Each operator downcasts to its concrete
/// state type.
pub type StateBox = Box<dyn Any + Send>;

/// Collects the tuples an operator emits while processing.
#[derive(Debug, Default)]
pub struct Emissions {
    tuples: Vec<Tuple>,
}

impl Emissions {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit one tuple to all downstream operators.
    pub fn emit(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    /// Number of buffered tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Drain the buffered tuples.
    pub fn drain(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.tuples)
    }
}

/// User-defined operator logic.
///
/// One instance of this trait is shared (via `Arc`) by every node that
/// hosts key groups of the operator; all per-key mutable data lives in the
/// state boxes, never in `self`.
pub trait Operator: Send + Sync {
    /// Human-readable operator name (diagnostics only).
    fn name(&self) -> &str;

    /// Fresh (empty) state for one key group.
    fn new_state(&self) -> StateBox;

    /// Serialize a key group's state for migration. The engine treats the
    /// bytes as opaque; `|σ_k|` (their length) feeds the migration cost
    /// model.
    fn serialize_state(&self, state: &StateBox) -> Vec<u8>;

    /// Rebuild state from [`Operator::serialize_state`] bytes.
    fn deserialize_state(&self, bytes: &[u8]) -> StateBox;

    /// Approximate in-memory size of a state box, for the memory-load
    /// model. Default: length of the serialized form.
    fn state_size(&self, state: &StateBox) -> usize {
        self.serialize_state(state).len()
    }

    /// Process one input tuple against the state of its key group.
    fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions);

    /// Process a whole run of same-key-group rows in one call — the
    /// threaded runtime's only entry point into operator logic, paying
    /// one virtual dispatch per batch instead of per tuple.
    ///
    /// The default bridges to [`Operator::process`] row by row, so every
    /// operator is columnar-capable unchanged; vectorizable operators
    /// override it to work on the columns directly (see
    /// [`Identity`]/[`Counting`]). Overrides must emit exactly what
    /// `process` would, row for row: the differential suite pins the
    /// runtime to a tuple-at-a-time reference interpreter.
    fn process_chunk(&self, rows: &ChunkSlice<'_>, state: &mut StateBox, out: &mut ChunkEmissions) {
        let mut tmp = Emissions::new();
        for i in 0..rows.len() {
            if !rows.is_visible(i) {
                continue;
            }
            let tuple = rows.tuple_at(i);
            self.process(&tuple, state, &mut tmp);
        }
        for t in tmp.drain() {
            out.emit(t);
        }
    }

    /// Called at the end of every statistics period — operators with
    /// windows flush aggregates here.
    fn on_period_end(&self, _state: &mut StateBox, _out: &mut Emissions) {}

    /// Whether [`Operator::on_period_end`] mutates the state it is given.
    /// Operators whose period flush clears or rewrites state (window
    /// operators) must return `true`, or incremental checkpoints would
    /// miss the flush-time change; the default (`false`) matches a pure
    /// emit-only or no-op flush and keeps untouched groups eligible to go
    /// cold on the spill tier.
    fn period_end_mutates(&self) -> bool {
        false
    }

    /// Relative CPU cost of processing one tuple (1.0 = baseline). Feeds
    /// the load model so heavy operators produce hotter key groups.
    fn cost_per_tuple(&self) -> f64 {
        1.0
    }
}

/// A pass-through operator, useful as a source placeholder and in tests.
#[derive(Debug, Default)]
pub struct Identity;

impl Operator for Identity {
    fn name(&self) -> &str {
        "identity"
    }
    fn new_state(&self) -> StateBox {
        Box::new(())
    }
    fn serialize_state(&self, _state: &StateBox) -> Vec<u8> {
        Vec::new()
    }
    fn deserialize_state(&self, _bytes: &[u8]) -> StateBox {
        Box::new(())
    }
    fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
        out.emit(tuple.clone());
    }
    fn process_chunk(
        &self,
        rows: &ChunkSlice<'_>,
        _state: &mut StateBox,
        out: &mut ChunkEmissions,
    ) {
        // Pass-through is a flat column splice: no per-row work at all.
        out.emit_slice(rows);
    }
}

/// A stateful counter operator used in tests: counts tuples per key group
/// and emits the running count.
#[derive(Debug, Default)]
pub struct Counting;

impl Operator for Counting {
    fn name(&self) -> &str {
        "counting"
    }
    fn new_state(&self) -> StateBox {
        Box::new(0u64)
    }
    fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
        let count = state.downcast_ref::<u64>().expect("counting state");
        count.to_le_bytes().to_vec()
    }
    fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        Box::new(u64::from_le_bytes(arr))
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions) {
        let count = state.downcast_mut::<u64>().expect("counting state");
        *count += 1;
        out.emit(Tuple::raw(
            tuple.key,
            crate::tuple::Value::Int(*count as i64),
            tuple.ts,
        ));
    }
    fn process_chunk(&self, rows: &ChunkSlice<'_>, state: &mut StateBox, out: &mut ChunkEmissions) {
        // One downcast per run, counts emitted straight into the column.
        let count = state.downcast_mut::<u64>().expect("counting state");
        for i in 0..rows.len() {
            if !rows.is_visible(i) {
                continue;
            }
            *count += 1;
            out.emit_raw(
                rows.key_at(i),
                crate::tuple::Value::Int(*count as i64),
                rows.ts_at(i),
            );
        }
    }
}

/// [`Counting`] with a deliberately fat, highly compressible serialized
/// form: the 8-byte LE count followed by 16 KiB of constant padding.
/// Exists to exercise wire-level state compression end-to-end (the
/// networked transport's LZ4 path has something real to shrink); the
/// count still lives in the first 8 bytes, so state probes read it the
/// same way they read [`Counting`]'s.
#[derive(Debug, Default)]
pub struct PaddedCounting;

/// Padding bytes [`PaddedCounting`] appends to its serialized state.
pub const PADDED_STATE_PAD: usize = 16 * 1024;

impl Operator for PaddedCounting {
    fn name(&self) -> &str {
        "padded-counting"
    }
    fn new_state(&self) -> StateBox {
        Box::new(0u64)
    }
    fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
        let count = *state.downcast_ref::<u64>().expect("padded-counting state");
        let mut bytes = count.to_le_bytes().to_vec();
        bytes.resize(8 + PADDED_STATE_PAD, (count % 251) as u8);
        bytes
    }
    fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        Box::new(u64::from_le_bytes(arr))
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions) {
        let count = state.downcast_mut::<u64>().expect("padded-counting state");
        *count += 1;
        out.emit(Tuple::raw(
            tuple.key,
            crate::tuple::Value::Int(*count as i64),
            tuple.ts,
        ));
    }
    fn process_chunk(&self, rows: &ChunkSlice<'_>, state: &mut StateBox, out: &mut ChunkEmissions) {
        let count = state.downcast_mut::<u64>().expect("padded-counting state");
        for i in 0..rows.len() {
            if !rows.is_visible(i) {
                continue;
            }
            *count += 1;
            out.emit_raw(
                rows.key_at(i),
                crate::tuple::Value::Int(*count as i64),
                rows.ts_at(i),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    #[test]
    fn emissions_collect_and_drain() {
        let mut e = Emissions::new();
        assert!(e.is_empty());
        e.emit(Tuple::raw(1, Value::Null, 0));
        e.emit(Tuple::raw(2, Value::Null, 0));
        assert_eq!(e.len(), 2);
        let drained = e.drain();
        assert_eq!(drained.len(), 2);
        assert!(e.is_empty());
    }

    #[test]
    fn identity_passes_through() {
        let op = Identity;
        let mut state = op.new_state();
        let mut out = Emissions::new();
        let t = Tuple::raw(7, Value::Int(3), 1);
        op.process(&t, &mut state, &mut out);
        assert_eq!(out.drain(), vec![t]);
        assert_eq!(op.state_size(&state), 0);
    }

    #[test]
    fn counting_state_roundtrips_through_serialization() {
        let op = Counting;
        let mut state = op.new_state();
        let mut out = Emissions::new();
        for i in 0..5 {
            op.process(&Tuple::raw(9, Value::Null, i), &mut state, &mut out);
        }
        let counts: Vec<i64> = out
            .drain()
            .iter()
            .map(|t| t.value.as_int().unwrap())
            .collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 5]);

        // Migrate: serialize, rebuild, continue counting.
        let bytes = op.serialize_state(&state);
        let mut moved = op.deserialize_state(&bytes);
        let mut out = Emissions::new();
        op.process(&Tuple::raw(9, Value::Null, 9), &mut moved, &mut out);
        assert_eq!(out.drain()[0].value.as_int(), Some(6));
    }

    #[test]
    fn default_cost_is_baseline() {
        assert_eq!(Identity.cost_per_tuple(), 1.0);
    }

    #[test]
    fn chunk_overrides_match_the_row_path() {
        use crate::chunk::StreamChunk;
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| Tuple::raw(i % 3, Value::Int(i as i64), i))
            .collect();
        let chunk = StreamChunk::from_tuples(tuples.clone());
        for op in [&Identity as &dyn Operator, &Counting as &dyn Operator] {
            // Row path.
            let mut row_state = op.new_state();
            let mut row_out = Emissions::new();
            for t in &tuples {
                op.process(t, &mut row_state, &mut row_out);
            }
            // Chunk path (the override), then the default bridge.
            let mut chunk_state = op.new_state();
            let mut chunk_out = ChunkEmissions::new();
            op.process_chunk(&ChunkSlice::whole(&chunk), &mut chunk_state, &mut chunk_out);
            assert_eq!(chunk_out.into_chunk().to_tuples(), row_out.drain());
            assert_eq!(
                op.serialize_state(&chunk_state),
                op.serialize_state(&row_state)
            );
        }
    }

    #[test]
    fn default_process_chunk_bridges_and_skips_hidden_rows() {
        use crate::chunk::StreamChunk;
        // An operator with no override exercises the default bridge.
        struct Doubling;
        impl Operator for Doubling {
            fn name(&self) -> &str {
                "doubling"
            }
            fn new_state(&self) -> StateBox {
                Box::new(())
            }
            fn serialize_state(&self, _state: &StateBox) -> Vec<u8> {
                Vec::new()
            }
            fn deserialize_state(&self, _bytes: &[u8]) -> StateBox {
                Box::new(())
            }
            fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
                let v = tuple.value.as_int().unwrap_or(0);
                out.emit(Tuple::raw(tuple.key, Value::Int(2 * v), tuple.ts));
            }
        }
        let mut chunk =
            StreamChunk::from_tuples((0..4).map(|i| Tuple::raw(i, Value::Int(i as i64), i)));
        chunk.hide(1);
        let mut state = Doubling.new_state();
        let mut out = ChunkEmissions::new();
        Doubling.process_chunk(&ChunkSlice::whole(&chunk), &mut state, &mut out);
        let emitted: Vec<i64> = out
            .into_chunk()
            .to_tuples()
            .iter()
            .map(|t| t.value.as_int().unwrap())
            .collect();
        assert_eq!(emitted, vec![0, 4, 6]);
    }
}
