//! Microbenchmark for the direct state migration protocol on the threaded
//! runtime: one-move epoch barrier waves (align → serialize → ship →
//! rebuild → replay round trips).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use albic_engine::migration::Migration;
use albic_engine::operator::{Counting, Identity};
use albic_engine::runtime::RuntimeConfig;
use albic_engine::topology::TopologyBuilder;
use albic_engine::transport::TransportOptions;
use albic_engine::tuple::{hash_key, Tuple, Value};
use albic_engine::{Cluster, CostModel, RoutingTable};
use albic_types::NodeId;

fn bench_migration_roundtrip(c: &mut Criterion) {
    c.bench_function("migrate_state_roundtrip", |b| {
        let mut bld = TopologyBuilder::new();
        let src = bld.source("src", 8, Arc::new(Identity));
        let cnt = bld.operator("count", 8, Arc::new(Counting));
        bld.edge(src, cnt);
        let topology = bld.build().unwrap();
        let cluster = Cluster::homogeneous(2);
        let ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(topology.num_key_groups(), &ids);
        let mut rt = albic_engine::runtime::Runtime::start_with_options(
            topology,
            cluster,
            routing,
            CostModel::default(),
            RuntimeConfig::default(),
            TransportOptions::InProcess,
        )
        .expect("in-process workers start without I/O");

        // Build up some state.
        rt.inject(
            src,
            (0..1000).map(|i| Tuple::keyed(&(i % 8), Value::Int(i), 0)),
        );
        rt.quiesce();
        let kg = rt.topology().group_for_key(cnt, hash_key(&3i64));
        let nodes = [NodeId::new(0), NodeId::new(1)];
        let mut flip = 0usize;

        b.iter(|| {
            flip ^= 1;
            rt.migrate(&[Migration {
                group: kg,
                to: nodes[flip],
            }])
        });
        rt.shutdown();
    });
}

criterion_group!(benches, bench_migration_roundtrip);
criterion_main!(benches);
