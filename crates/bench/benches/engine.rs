//! Microbenchmarks for the engine substrate: simulator ticks at paper
//! scale, tuple throughput through the threaded runtime, the cost of one
//! healthy no-op adaptation round on it, and one checkpoint capture's
//! spill-tier traffic.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use albic_core::Controller;
use albic_engine::checkpoint::{CheckpointMode, CheckpointStore, SpillConfig};
use albic_engine::operator::{Counting, Identity};
use albic_engine::reconfig::NoopPolicy;
use albic_engine::runtime::{Runtime, RuntimeConfig};
use albic_engine::topology::{Topology, TopologyBuilder};
use albic_engine::transport::TransportOptions;
use albic_engine::tuple::{Tuple, Value};
use albic_engine::{Cluster, CostModel, RoutingTable, SimEngine};
use albic_types::NodeId;
use albic_workloads::{SyntheticConfig, SyntheticWorkload};

/// In-process worker threads with the default data-plane tuning.
fn start_in_process(topology: Topology, cluster: Cluster, routing: RoutingTable) -> Runtime {
    let (cfg, options) = (RuntimeConfig::default(), TransportOptions::InProcess);
    Runtime::start_with_options(
        topology,
        cluster,
        routing,
        CostModel::default(),
        cfg,
        options,
    )
    .expect("in-process workers start without I/O")
}

fn bench_sim_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_tick");
    group.sample_size(20);
    for nodes in [20usize, 60] {
        group.bench_function(format!("{nodes}n"), |b| {
            let cfg = SyntheticConfig {
                background_comm: true,
                one_to_one_pct: 50.0,
                ..SyntheticConfig::cluster(nodes)
            };
            let mut sim = SimEngine::with_round_robin(
                SyntheticWorkload::new(cfg),
                Cluster::homogeneous(nodes),
                CostModel::default(),
            );
            b.iter(|| sim.tick());
        });
    }
    group.finish();
}

fn bench_runtime_throughput(c: &mut Criterion) {
    c.bench_function("runtime_10k_tuples", |b| {
        let mut bld = TopologyBuilder::new();
        let src = bld.source("src", 16, Arc::new(Identity));
        let cnt = bld.operator("count", 16, Arc::new(Counting));
        bld.edge(src, cnt);
        let topology = bld.build().unwrap();
        let cluster = Cluster::homogeneous(4);
        let ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(topology.num_key_groups(), &ids);
        let mut rt = start_in_process(topology, cluster, routing);
        let tuples: Vec<Tuple> = (0..10_000)
            .map(|i| Tuple::keyed(&(i % 64), Value::Int(i), i as u64))
            .collect();
        b.iter(|| {
            rt.inject(src, tuples.clone());
            rt.quiesce();
        });
        let _ = rt.end_period();
        rt.shutdown();
    });
}

/// One `Controller::step` under a no-op policy on a settled data plane:
/// recover → settle → end_period → plan, with nothing to apply. What it
/// measures is the coordinator's control-plane round trips (barrier
/// rounds, window flush, statistics collection), not data processing.
fn bench_runtime_noop_round(c: &mut Criterion) {
    c.bench_function("runtime_noop_round", |b| {
        let mut bld = TopologyBuilder::new();
        let src = bld.source("src", 16, Arc::new(Identity));
        let cnt = bld.operator("count", 16, Arc::new(Counting));
        bld.edge(src, cnt);
        let topology = bld.build().unwrap();
        let cluster = Cluster::homogeneous(2);
        let ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(topology.num_key_groups(), &ids);
        let mut rt = start_in_process(topology, cluster, routing);
        rt.inject(
            src,
            (0..1000).map(|i| Tuple::keyed(&(i % 64), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let mut controller = Controller::new(&mut rt);
        let mut policy = NoopPolicy;
        b.iter(|| controller.step(&mut policy));
        rt.shutdown();
    });
}

/// One incremental capture in the spill tier's steady state: the store
/// spills the two 4 KiB groups dirtied the period before and un-spills
/// the two it spilled then, which are dirty again. Only the store runs
/// (no workers), so this is the disk-side cost a capture adds to a
/// period boundary.
fn bench_checkpoint_spill_period(c: &mut Criterion) {
    c.bench_function("checkpoint_spill_period", |b| {
        let dir = std::env::temp_dir().join(format!("albic-bench-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spill = SpillConfig {
            dir: dir.clone(),
            cold_after: 1,
        };
        let mut store = CheckpointStore::new(CheckpointMode::Incremental, 1, Some(spill))
            .expect("spill directory");
        let image = vec![7u8; 4096];
        store.ingest(0, (0..4).map(|g| (g, image.clone())).collect(), true);
        let mut period = 1u64;
        b.iter(|| {
            let pair = (period % 2) as u32 * 2;
            let states = vec![(pair, image.clone()), (pair + 1, image.clone())];
            store.ingest(period, states, false);
            period += 1;
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

criterion_group!(
    benches,
    bench_sim_tick,
    bench_runtime_throughput,
    bench_runtime_noop_round,
    bench_checkpoint_spill_period
);
criterion_main!(benches);
