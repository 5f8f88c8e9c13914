//! A parallel stream processing engine (PSPE) substrate.
//!
//! The paper implements its reconfiguration techniques on Apache Storm;
//! this crate is the from-scratch Rust equivalent the rest of the workspace
//! builds on. It provides:
//!
//! * [`tuple`](mod@tuple) / [`codec`] — the `⟨key, value, ts⟩` data model and a small
//!   self-contained binary codec used for state serialization.
//! * [`operator`] — the operator abstraction: opaque user logic over
//!   key-group-partitioned state, plus typed-state helpers.
//! * [`topology`] — operator DAGs with per-operator key-group spaces and
//!   the four partitioning patterns of §4.3.1.
//! * [`routing`] — key → key group → node routing tables.
//! * [`cluster`] — the node set: capacities, heterogeneity, nodes marked
//!   for removal by horizontal scaling, add/terminate.
//! * [`stats`] — per-SPL statistics: `gLoad_k`, `load_i`, the
//!   `out(g_i, g_j)` communication matrix, state sizes, bottleneck
//!   resource selection.
//! * [`cost`] — the load/cost model: processing cost, cross-node
//!   serialization/deserialization cost (what collocation saves), the
//!   migration cost model `mc_k = α·|σ_k|`.
//! * [`checkpoint`] — the incremental, log-structured checkpoint store:
//!   per-key-group base images plus bounded delta layers compacted at
//!   period boundaries, with a spill tier for cold key groups so total
//!   state can exceed memory.
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`] /
//!   [`fault::FaultInjector`]) and the recovery vocabulary: recovery
//!   shares the migration machinery (checkpointed state restored through
//!   the same install path, re-homing through the routing table), so
//!   reconfiguration and fault tolerance are one mechanism.
//! * [`migration`] — direct state migration (Madsen & Zhou, CIKM'15):
//!   redirect upstreams → buffer at destination → serialize & ship state →
//!   rebuild → replay buffer, with pause-time accounting.
//! * [`sim`] — a deterministic discrete-time cluster simulator driven by a
//!   [`sim::WorkloadModel`]; one tick = one statistics period (SPL). The
//!   paper-scale experiments (60 nodes, 1200 key groups, 90 periods) run
//!   in milliseconds here.
//! * [`runtime`] — a real multi-threaded runtime: one worker thread per
//!   node, a batched bounded data plane ([`runtime::RuntimeConfig`]) with
//!   backpressure at the ingestion edge ([`runtime::Injector`]), and the
//!   full migration protocol including buffering and replay. Examples and
//!   integration tests run actual jobs on it.
//! * [`substrate`] — the [`substrate::ReconfigEngine`] trait both execution
//!   modes implement: the period lifecycle (`terminate_drained` /
//!   `end_period` / `view` / `apply` / `history`) that controllers and
//!   policies drive without knowing which substrate is underneath.
//!
//! Reconfiguration *policies* (the paper's contribution and the baselines)
//! live in `albic-core`; this crate only defines the interface they
//! implement ([`reconfig::ReconfigPolicy`]) and executes their plans —
//! the Algorithm-1 control loop itself is `albic_core::controller`, and
//! the fluent front door that assembles topology, cluster, routing and
//! policy into a running job on either substrate is `albic_core::job`
//! (re-exported as `albic::job`). The constructors below are the
//! advanced-wiring layer that builder drives.
//!
//! # Example
//!
//! ```
//! use albic_engine::codec::{Reader, Writer};
//! use albic_engine::{Cluster, RoutingTable, Value};
//! use albic_types::NodeId;
//!
//! // A 4-node homogeneous cluster and a routing table spreading 8 key
//! // groups round-robin across it.
//! let cluster = Cluster::homogeneous(4);
//! assert_eq!(cluster.alive().count(), 4);
//! let routing = RoutingTable::from_assignment(
//!     (0..8u32).map(|g| NodeId::new(g % 4)).collect(),
//! );
//! assert_eq!(routing.len(), 8);
//! assert_eq!(routing.node_of(albic_types::KeyGroupId::new(5)), NodeId::new(1));
//!
//! // The state codec round-trips the tuple value model losslessly; this
//! // is the format key-group state travels in during migration.
//! let v = Value::List(vec![Value::Str("edit".into()), Value::Int(42)]);
//! let mut w = Writer::new();
//! w.put_value(&v);
//! let decoded = Reader::new(&w.into_bytes()).get_value().unwrap();
//! assert_eq!(decoded, v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod chunk;
pub mod cluster;
pub mod codec;
pub mod cost;
pub mod fault;
pub mod migration;
pub mod operator;
pub mod reconfig;
pub mod routing;
pub mod runtime;
pub mod sim;
pub mod stats;
pub mod substrate;
pub mod topology;
pub mod transport;
pub mod tuple;

pub use checkpoint::{CheckpointMode, CheckpointStore, SpillConfig};
pub use chunk::{ChunkEmissions, ChunkSlice, ChunkSorter, StreamChunk};
pub use cluster::{Cluster, NodeInfo};
pub use cost::CostModel;
pub use fault::{FaultInjector, FaultKind, FaultPlan, RecoveryReport, TerminateError};
pub use migration::{Migration, MigrationReport};
pub use operator::{Emissions, Operator, StateBox};
pub use reconfig::{ClusterView, ReconfigPlan, ReconfigPolicy};
pub use routing::RoutingTable;
pub use runtime::{Injector, Runtime, RuntimeConfig};
pub use sim::{SimEngine, WorkloadModel, WorkloadSnapshot};
pub use stats::{NodePressure, PeriodStats};
pub use substrate::{
    ApplyReport, FailedMigration, MigrationFailure, PeriodRecord, ReconfigEngine, ReconfigMode,
};
pub use topology::{OperatorSpec, Topology, TopologyBuilder};
pub use transport::{
    InProcessTransport, NetConfig, NetTransport, OperatorRegistry, ReconnectPolicy, SocketKind,
    Transport, TransportError, TransportOptions,
};
pub use tuple::{Tuple, Value};
