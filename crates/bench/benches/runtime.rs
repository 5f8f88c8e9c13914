//! `bench_runtime`: micro-benchmarks of the threaded runtime's data
//! plane — inject-and-settle cost at 256-row chunks vs the degenerate
//! per-tuple hand-off (`batch_size = 1`), plus
//! `bench_chunk`: isolated chunk-primitive costs (group hashing,
//! bucketing, splicing). The sustained-throughput picture (increasing
//! offered load, settle-latency percentiles, the committed
//! `BENCH_runtime.json`) lives in the `throughput` binary; these groups
//! are for quick relative comparisons during development.

use criterion::{criterion_group, criterion_main, Criterion};

use albic_core::job::{Job, Policy};
use albic_engine::operator::{Counting, Identity};
use albic_engine::runtime::Runtime;
use albic_engine::topology::TopologyBuilder;
use albic_engine::tuple::{Tuple, Value};
use albic_engine::{ChunkSorter, RuntimeConfig, StreamChunk};
use std::sync::Arc;

const WAVE: usize = 2_000;
/// Rows per chunk in the primitive benches (the chunk plane's default
/// wire size in `BENCH_runtime.json`).
const CHUNK_ROWS: usize = 256;

fn live_job(batch_size: usize) -> Job<Runtime> {
    Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(3)
        .policy(Policy::noop())
        .runtime_config(RuntimeConfig {
            batch_size,
            ..RuntimeConfig::default()
        })
        .build_threaded()
        .expect("valid bench job")
}

fn wave(n: usize) -> impl Iterator<Item = Tuple> {
    (0..n).map(|i| Tuple::keyed(&((i % 64) as i64), Value::Int(i as i64), 0))
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_runtime");
    group.sample_size(10);

    let mut columnar = live_job(256);
    group.bench_function("inject_settle_2k_chunk256", |b| {
        b.iter(|| {
            columnar.inject("events", wave(WAVE));
            columnar.settle();
        })
    });

    let mut per_tuple = live_job(1);
    group.bench_function("inject_settle_2k_batch1", |b| {
        b.iter(|| {
            per_tuple.inject("events", wave(WAVE));
            per_tuple.settle();
        })
    });

    group.finish();
    columnar.shutdown();
    per_tuple.shutdown();
}

/// Isolated costs of the chunk plane's primitives, each over one
/// 256-row all-Int chunk with 64 interleaved keys (the throughput
/// harness's wire shape).
fn bench_chunk(c: &mut Criterion) {
    let mut b = TopologyBuilder::new();
    let src = b.source("events", 8, Arc::new(Identity));
    let dst = b.operator("count", 8, Arc::new(Counting));
    b.edge(src, dst);
    let topology = b.build().expect("valid bench topology");

    let mut chunk = StreamChunk::with_capacity(CHUNK_ROWS);
    for t in wave(CHUNK_ROWS) {
        chunk.push_tuple(t);
    }
    chunk.assign_groups(src, &topology);
    let num_groups = topology.num_key_groups() as usize;

    let mut group = c.benchmark_group("bench_chunk");

    // Vectorized group hashing: one pass over the key column.
    group.bench_function("assign_groups_256", |b| {
        b.iter(|| chunk.assign_groups(src, &topology))
    });

    // Bucketing an interleaved chunk: counting pass + permutation,
    // no row copies.
    let mut sorter = ChunkSorter::new();
    group.bench_function("bucket_interleaved_256", |b| {
        b.iter(|| sorter.bucket(&chunk, num_groups))
    });

    // Splicing the bucketed runs out through the selection vector (the
    // gather every emitted run pays on its way to an outbox).
    sorter.bucket(&chunk, num_groups);
    let mut out = StreamChunk::with_capacity(CHUNK_ROWS);
    group.bench_function("splice_selected_256", |b| {
        b.iter(|| {
            out.clear();
            out.append_sel(&chunk, sorter.perm());
        })
    });

    // Splicing a contiguous run (the flat all-Int fast path).
    group.bench_function("splice_range_256", |b| {
        b.iter(|| {
            out.clear();
            out.append_range(&chunk, 0, chunk.len());
        })
    });

    group.finish();
}

criterion_group!(benches, bench_runtime, bench_chunk);
criterion_main!(benches);
