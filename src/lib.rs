//! **albic** — a from-scratch Rust reproduction of *Integrative Dynamic
//! Reconfiguration in a Parallel Stream Processing Engine* (Madsen, Zhou &
//! Cao, arXiv:1602.03770 / ICDE'17 line of work).
//!
//! This umbrella crate re-exports the workspace so applications can depend
//! on one crate:
//!
//! * [`types`] — shared ids and value types (nodes, operators, key groups,
//!   loads, statistics periods).
//! * [`engine`] — the parallel stream processing engine substrate:
//!   topologies, key-group state, routing, statistics, direct state
//!   migration, a threaded runtime and a deterministic simulator.
//! * [`milp`] — the MILP toolkit standing in for CPLEX: simplex, branch &
//!   bound, and a structured solver for the paper's allocation MILP with
//!   exact relaxation bounds.
//! * [`partition`] — multilevel balanced graph partitioning (METIS
//!   substitute).
//! * [`core`] — the paper's contribution: the integrative adaptation
//!   framework (Algorithm 1), the MILP load balancer (§4.3.1), ALBIC
//!   (Algorithm 2), horizontal scaling, and the Flux/PoTC/COLA baselines.
//! * [`workloads`] — dataset simulators (Wikipedia edits, airline
//!   on-time, GSOD weather), synthetic cluster scenarios, and the paper's
//!   Real Jobs 1-4.
//!
//! # Quickstart
//!
//! The front door is the fluent [`job`] API: one validating builder from
//! topology to adaptation loop, on either substrate. A 20-node cluster
//! with a skewed synthetic workload, balanced by the paper's MILP under a
//! migration budget, on the deterministic simulator:
//!
//! ```
//! use albic::job::{Job, Policy};
//! use albic::milp::MigrationBudget;
//! use albic::workloads::{SyntheticConfig, SyntheticWorkload};
//!
//! # fn main() -> Result<(), albic::job::JobError> {
//! let cfg = SyntheticConfig { varies: 40.0, ..SyntheticConfig::cluster(20) };
//! let mut job = Job::builder()
//!     .nodes(20)
//!     .policy(Policy::milp().with_budget(MigrationBudget::Count(20)))
//!     .build_simulated(SyntheticWorkload::new(cfg))?;
//!
//! let history = job.run(3).to_vec();
//! assert!(history.last().unwrap().load_distance <= history[0].load_distance);
//! # Ok(())
//! # }
//! ```
//!
//! Swap `build_simulated(..)` for `.source(..).operator(..).edge(..)` +
//! `build_threaded()` and the identical policy stack runs on real worker
//! threads with real state migration — see `examples/quickstart.rs`. The
//! layer-by-layer constructors (`TopologyBuilder`, `Cluster`,
//! `RoutingTable`, `Controller`, ...) remain available for advanced
//! wiring.

#![forbid(unsafe_code)]

pub use albic_core as core;
pub use albic_engine as engine;
pub use albic_milp as milp;
pub use albic_partition as partition;
pub use albic_types as types;
pub use albic_workloads as workloads;

pub use albic_core::job;
pub use albic_core::job::{Job, JobBuilder, JobError, JobSummary, Policy};
pub use albic_engine::ReconfigMode;
pub use albic_engine::{ChunkSorter, RuntimeConfig, StreamChunk};
pub use albic_engine::{NetConfig, ReconnectPolicy, SocketKind, TransportError, TransportOptions};
