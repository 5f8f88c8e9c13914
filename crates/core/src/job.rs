//! The fluent `Job` API — one builder from topology to adaptation loop,
//! on either substrate.
//!
//! Assembling a run of the integrative framework used to take six
//! hand-wired parts (`TopologyBuilder` → `Cluster` → `RoutingTable` →
//! `CostModel` → `AdaptationFramework` → `Controller`). [`Job::builder`]
//! replaces that with one validating builder:
//!
//! ```
//! use albic_core::job::{Job, Policy};
//! use albic_engine::operator::{Counting, Identity};
//!
//! let job = Job::builder()
//!     .source("events", 8, Identity)
//!     .operator("count", 8, Counting)
//!     .edge("events", "count")
//!     .nodes(2)
//!     .policy(Policy::milp())
//!     .build_threaded();
//! let mut job = job.expect("validated at build time");
//! // ... job.inject(...), job.step(), job.report(), job.shutdown()
//! # job.shutdown();
//! ```
//!
//! The same builder drives the deterministic simulator — swap
//! [`JobBuilder::build_threaded`] for [`JobBuilder::build_simulated`] and
//! the identical policy stack runs on modeled rates instead of worker
//! threads (both engines implement `ReconfigEngine`; see
//! `tests/substrate_equivalence.rs`). Simulated jobs may omit the
//! topology entirely: the workload model then defines the key-group
//! space, which is how the paper's figure experiments run.
//!
//! Validation happens at `build_*` time behind [`JobError`] — empty
//! topologies, dangling edges, zero-node clusters and routing/key-group
//! mismatches are errors, not panics. The pre-existing constructors
//! (`Runtime::start_with_options`, `SimEngine::new`, [`Controller::new`]) remain
//! available for advanced wiring.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use albic_engine::checkpoint::{CheckpointMode, SpillConfig};
use albic_engine::operator::Operator;
use albic_engine::reconfig::NoopPolicy;
use albic_engine::runtime::{Injector, Runtime, RuntimeConfig};
use albic_engine::sim::{SimEngine, WorkloadModel};
use albic_engine::topology::{Topology, TopologyBuilder, TopologyError};
use albic_engine::transport::TransportOptions;
use albic_engine::tuple::Tuple;
use albic_engine::{
    ApplyReport, Cluster, CostModel, PeriodRecord, PeriodStats, ReconfigEngine, ReconfigMode,
    ReconfigPlan, ReconfigPolicy, RoutingTable,
};
use albic_milp::MigrationBudget;
use albic_types::NodeId;

use crate::albic::{Albic, AlbicConfig};
use crate::baselines::{Cola, Flux, NonIntegratedScaleIn};
use crate::controller::{Controller, StepReport};
use crate::framework::AdaptationFramework;
use crate::scaling::ThresholdScaling;

/// Why a job specification failed to build.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// A threaded job declared no operators (and no prebuilt topology).
    EmptyTopology,
    /// Two operators share a display name, so name-based edges and
    /// [`Job::inject`] would be ambiguous.
    DuplicateOperator(String),
    /// An edge references an operator name that was never declared.
    DanglingEdge {
        /// Edge origin as given.
        from: String,
        /// Edge target as given.
        to: String,
        /// Whichever endpoint is unknown.
        unknown: String,
    },
    /// The declared operator network is invalid (cyclic, zero key
    /// groups, ...).
    InvalidTopology(TopologyError),
    /// Both a prebuilt [`Topology`] and fluent operators/edges were given;
    /// pick one.
    MixedTopology,
    /// The job has no nodes: neither [`JobBuilder::nodes`] nor
    /// [`JobBuilder::cluster`] provided a non-empty cluster.
    ZeroNodes,
    /// A custom routing spec does not cover exactly the job's key groups.
    RoutingMismatch {
        /// Key groups the job defines.
        key_groups: usize,
        /// Entries the routing spec provided.
        routed: usize,
    },
    /// A [`JobBuilder::routing_table`] places key groups on a node id
    /// that is not part of the cluster.
    RoutingUnknownNode(NodeId),
    /// A [`JobBuilder::routing_assignment`] references a node *index*
    /// outside the cluster's node list.
    RoutingIndexOutOfRange {
        /// The offending index.
        index: u32,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// A simulated job's workload model disagrees with the declared
    /// topology about the number of key groups.
    WorkloadMismatch {
        /// Key groups the topology defines.
        key_groups: u32,
        /// Key groups the workload model describes.
        workload_groups: u32,
    },
    /// [`Policy::albic`] needs per-group downstream counts, but the job
    /// has no topology to derive them from and
    /// [`Policy::with_downstream`] was not called.
    MissingDownstreamGroups,
    /// An explicit [`Policy::with_downstream`] vector does not cover
    /// exactly the job's key groups.
    DownstreamMismatch {
        /// Key groups the job defines.
        key_groups: u32,
        /// Entries the downstream vector provided.
        downstream: usize,
    },
    /// A `Policy::with_*` modifier was set on a preset it does not apply
    /// to (e.g. `with_budget` on `flux`, whose constructor already takes
    /// its migration cap, or `with_scaling` on `custom`, which is used
    /// verbatim) — rejected rather than silently ignored.
    UnsupportedPolicyOption {
        /// The `with_*` modifier that was set.
        option: &'static str,
        /// The preset it cannot apply to.
        policy: &'static str,
    },
    /// The configured [`JobBuilder::transport`] backend failed to come
    /// up (listener bind, worker launch, or handshake error).
    TransportFailed(String),
    /// [`JobBuilder::checkpoint_mode`] selected
    /// [`CheckpointMode::Incremental`] but checkpointing is disabled
    /// ([`JobBuilder::checkpoint_interval`] is 0) — the mode would be
    /// silently inert.
    IncrementalNeedsCheckpointing,
    /// [`JobBuilder::spill_dir`] was set without
    /// [`CheckpointMode::Incremental`]: the spill tier lives in the
    /// incremental store, so full-snapshot mode would silently ignore it.
    SpillRequiresIncremental,
    /// [`JobBuilder::cold_after`] was set to 0 with a spill directory
    /// configured — every group would spill at the first capture.
    SpillNeedsColdAfter,
    /// The [`JobBuilder::spill_dir`] directory could not be created, so
    /// every spill write would fail and cold groups would silently stay
    /// resident.
    SpillDirUnavailable {
        /// The configured directory.
        dir: PathBuf,
        /// The I/O error that prevented creating it.
        reason: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::EmptyTopology => {
                write!(f, "job declares no operators; a threaded job needs a topology")
            }
            JobError::DuplicateOperator(name) => {
                write!(f, "two operators are both named {name:?}")
            }
            JobError::DanglingEdge { from, to, unknown } => {
                write!(f, "edge {from:?} -> {to:?} references unknown operator {unknown:?}")
            }
            JobError::InvalidTopology(e) => write!(f, "invalid operator network: {e}"),
            JobError::MixedTopology => write!(
                f,
                "both a prebuilt topology and fluent operators were given; use one or the other"
            ),
            JobError::ZeroNodes => write!(
                f,
                "job has no nodes; call .nodes(n) with n > 0 or .cluster(...) with a non-empty cluster"
            ),
            JobError::RoutingMismatch { key_groups, routed } => write!(
                f,
                "routing covers {routed} key groups but the job defines {key_groups}"
            ),
            JobError::RoutingUnknownNode(n) => {
                write!(f, "routing places key groups on {n:?}, which is not in the cluster")
            }
            JobError::RoutingIndexOutOfRange { index, nodes } => write!(
                f,
                "routing assignment references node index {index}, but the cluster has {nodes} nodes"
            ),
            JobError::WorkloadMismatch {
                key_groups,
                workload_groups,
            } => write!(
                f,
                "workload model describes {workload_groups} key groups but the topology defines {key_groups}"
            ),
            JobError::MissingDownstreamGroups => write!(
                f,
                "ALBIC needs downstream key-group counts: declare a topology or call Policy::with_downstream"
            ),
            JobError::DownstreamMismatch {
                key_groups,
                downstream,
            } => write!(
                f,
                "Policy::with_downstream provides {downstream} entries but the job defines {key_groups} key groups"
            ),
            JobError::UnsupportedPolicyOption { option, policy } => write!(
                f,
                "Policy::{option} does not apply to the {policy:?} preset and would be silently ignored; remove it"
            ),
            JobError::TransportFailed(e) => write!(f, "transport failed to start: {e}"),
            JobError::IncrementalNeedsCheckpointing => write!(
                f,
                "checkpoint_mode(Incremental) needs checkpointing enabled; call .checkpoint_interval(n) with n > 0"
            ),
            JobError::SpillRequiresIncremental => write!(
                f,
                "spill_dir requires checkpoint_mode(Incremental); the full-snapshot store has no spill tier"
            ),
            JobError::SpillNeedsColdAfter => write!(
                f,
                "cold_after must be > 0 when a spill directory is configured"
            ),
            JobError::SpillDirUnavailable { dir, reason } => write!(
                f,
                "spill directory {} cannot be created: {reason}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// One operator of a linear [`JobBuilder::pipeline`].
#[must_use = "a stage does nothing until added to a job builder"]
pub struct Stage {
    name: String,
    key_groups: u32,
    logic: Arc<dyn Operator>,
}

impl Stage {
    /// A pipeline stage: `name`, key-group count, operator logic.
    pub fn new(name: impl Into<String>, key_groups: u32, logic: impl Operator + 'static) -> Self {
        Stage {
            name: name.into(),
            key_groups,
            logic: Arc::new(logic),
        }
    }
}

/// Shorthand for [`Stage::new`], so pipelines read as a list.
pub fn stage(name: impl Into<String>, key_groups: u32, logic: impl Operator + 'static) -> Stage {
    Stage::new(name, key_groups, logic)
}

/// Which reconfiguration stack drives the job — presets for the paper's
/// policies plus an escape hatch for custom [`ReconfigPolicy`]s.
///
/// All allocator presets (`milp`, `albic`, and the baselines) run through
/// the Algorithm-1 [`AdaptationFramework`], so scaling and new-node
/// capacity apply to any of them; budget and solver-work tuning applies
/// to `milp` and `albic` (the baselines take their migration cap as a
/// constructor argument); [`Policy::noop`] and [`Policy::custom`] are
/// used verbatim and accept no modifiers. A `with_*` modifier set on a
/// preset it cannot apply to (e.g. `with_budget` on `flux`) is a
/// [`JobError::UnsupportedPolicyOption`] at build time, never silently
/// ignored.
#[must_use = "a policy spec does nothing until attached to a job builder"]
pub struct Policy {
    kind: PolicyKind,
    budget: Option<MigrationBudget>,
    solver_work: Option<u64>,
    scaling: Option<ThresholdScaling>,
    new_node_capacity: Option<f64>,
    downstream: Option<Vec<u32>>,
}

enum PolicyKind {
    Milp,
    Albic(AlbicConfig),
    Flux { max_migrations: usize },
    Cola,
    NonIntegratedScaleIn { max_migrations: usize },
    Noop,
    Custom(Box<dyn ReconfigPolicy>),
}

impl Policy {
    fn preset(kind: PolicyKind) -> Self {
        Policy {
            kind,
            budget: None,
            solver_work: None,
            scaling: None,
            new_node_capacity: None,
            downstream: None,
        }
    }

    /// Never reconfigure (experimental control).
    pub fn noop() -> Self {
        Policy::preset(PolicyKind::Noop)
    }

    /// The paper's MILP load balancer (§4.3.1), unlimited migration
    /// budget unless [`Policy::with_budget`] restricts it.
    pub fn milp() -> Self {
        Policy::preset(PolicyKind::Milp)
    }

    /// ALBIC (Algorithm 2) with the paper's default tuning. Downstream
    /// key-group counts are derived from the job's topology; simulated
    /// jobs without a topology must supply them via
    /// [`Policy::with_downstream`].
    pub fn albic() -> Self {
        Policy::albic_config(AlbicConfig::default())
    }

    /// ALBIC with explicit tuning ([`AlbicConfig`] passthrough).
    /// [`Policy::with_budget`] / [`Policy::with_solver_work`] override the
    /// corresponding config fields.
    pub fn albic_config(cfg: AlbicConfig) -> Self {
        Policy::preset(PolicyKind::Albic(cfg))
    }

    /// The Flux baseline (pairwise balancing, ICDE'03) with a per-round
    /// migration cap.
    pub fn flux(max_migrations: usize) -> Self {
        Policy::preset(PolicyKind::Flux { max_migrations })
    }

    /// The COLA baseline (from-scratch collocation, Middleware'09).
    pub fn cola() -> Self {
        Policy::preset(PolicyKind::Cola)
    }

    /// The non-integrated scale-in baseline (drain first, balance later).
    pub fn non_integrated_scale_in(max_migrations: usize) -> Self {
        Policy::preset(PolicyKind::NonIntegratedScaleIn { max_migrations })
    }

    /// Any custom [`ReconfigPolicy`], used verbatim.
    pub fn custom(policy: impl ReconfigPolicy + 'static) -> Self {
        Policy::preset(PolicyKind::Custom(Box::new(policy)))
    }

    /// Restrict the per-round migration budget of `milp` / `albic`.
    pub fn with_budget(mut self, budget: MigrationBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Deterministic solver work per invocation (the paper's "solver
    /// seconds"); applies to `milp` and `albic`.
    pub fn with_solver_work(mut self, work: u64) -> Self {
        self.solver_work = Some(work);
        self
    }

    /// Enable integrated horizontal scaling with a utilization band
    /// `[low, high]` aiming at `target` (Algorithm 1, §4.2).
    pub fn with_scaling(self, low: f64, high: f64, target: f64) -> Self {
        self.with_scaling_policy(ThresholdScaling::new(low, high, target))
    }

    /// Enable integrated horizontal scaling with a fully configured
    /// [`ThresholdScaling`] (cooldown etc.).
    pub fn with_scaling_policy(mut self, scaling: ThresholdScaling) -> Self {
        self.scaling = Some(scaling);
        self
    }

    /// Relative capacity assigned to nodes acquired by scale-out.
    pub fn with_new_node_capacity(mut self, capacity: f64) -> Self {
        self.new_node_capacity = Some(capacity);
        self
    }

    /// Per-group downstream key-group counts for ALBIC's `avg(g_i)` —
    /// only needed by simulated jobs without a declared topology.
    pub fn with_downstream(mut self, downstream: Vec<u32>) -> Self {
        self.downstream = Some(downstream);
        self
    }

    /// Reject any `with_*` modifier this preset would silently ignore.
    fn check_options(&self) -> Result<(), JobError> {
        let policy = match &self.kind {
            PolicyKind::Milp => "milp",
            PolicyKind::Albic(_) => "albic",
            PolicyKind::Flux { .. } => "flux",
            PolicyKind::Cola => "cola",
            PolicyKind::NonIntegratedScaleIn { .. } => "non_integrated_scale_in",
            PolicyKind::Noop => "noop",
            PolicyKind::Custom(_) => "custom",
        };
        // (modifier name, set?, applies to this preset?)
        let allocator = !matches!(self.kind, PolicyKind::Noop | PolicyKind::Custom(_));
        let tunable = matches!(self.kind, PolicyKind::Milp | PolicyKind::Albic(_));
        let options = [
            ("with_budget", self.budget.is_some(), tunable),
            ("with_solver_work", self.solver_work.is_some(), tunable),
            ("with_scaling", self.scaling.is_some(), allocator),
            (
                "with_new_node_capacity",
                self.new_node_capacity.is_some(),
                allocator,
            ),
            (
                "with_downstream",
                self.downstream.is_some(),
                matches!(self.kind, PolicyKind::Albic(_)),
            ),
        ];
        for (option, set, applies) in options {
            if set && !applies {
                return Err(JobError::UnsupportedPolicyOption { option, policy });
            }
        }
        Ok(())
    }

    /// Resolve the spec into a runnable policy for a job of `key_groups`
    /// global key groups.
    fn into_policy(
        self,
        topology: Option<&Topology>,
        key_groups: u32,
    ) -> Result<Box<dyn ReconfigPolicy>, JobError> {
        fn framed<A: crate::allocator::KeyGroupAllocator + 'static>(
            allocator: A,
            scaling: Option<ThresholdScaling>,
            new_node_capacity: Option<f64>,
        ) -> Box<dyn ReconfigPolicy> {
            let mut fw = match scaling {
                Some(s) => AdaptationFramework::with_scaling(allocator, s),
                None => AdaptationFramework::balancing_only(allocator),
            };
            if let Some(c) = new_node_capacity {
                fw.new_node_capacity = c;
            }
            Box::new(fw)
        }

        self.check_options()?;
        let scaling = self.scaling;
        let capacity = self.new_node_capacity;
        Ok(match self.kind {
            PolicyKind::Noop => Box::new(NoopPolicy),
            PolicyKind::Custom(p) => p,
            PolicyKind::Milp => {
                let mut balancer = crate::balancer::MilpBalancer::new(
                    self.budget.unwrap_or(MigrationBudget::Unlimited),
                );
                if let Some(w) = self.solver_work {
                    balancer = balancer.with_solver_work(w);
                }
                framed(balancer, scaling, capacity)
            }
            PolicyKind::Albic(mut cfg) => {
                if let Some(b) = self.budget {
                    cfg.budget = b;
                }
                if let Some(w) = self.solver_work {
                    cfg.solver_work = w;
                }
                let downstream = match self.downstream {
                    Some(dg) => dg,
                    None => topology
                        .map(Topology::downstream_group_counts)
                        .ok_or(JobError::MissingDownstreamGroups)?,
                };
                if downstream.len() != key_groups as usize {
                    return Err(JobError::DownstreamMismatch {
                        key_groups,
                        downstream: downstream.len(),
                    });
                }
                framed(Albic::new(cfg, downstream), scaling, capacity)
            }
            PolicyKind::Flux { max_migrations } => {
                framed(Flux::new(max_migrations), scaling, capacity)
            }
            PolicyKind::Cola => framed(Cola::default(), scaling, capacity),
            PolicyKind::NonIntegratedScaleIn { max_migrations } => {
                framed(NonIntegratedScaleIn::new(max_migrations), scaling, capacity)
            }
        })
    }
}

enum ClusterSpec {
    Unset,
    Nodes(usize),
    Explicit(Cluster),
}

enum RoutingSpec {
    RoundRobin,
    AllOnFirst,
    Assignment(Vec<u32>),
    Table(RoutingTable),
}

/// Fluent, validating builder for a [`Job`]. Obtained via
/// [`Job::builder`]; see the [module docs](self) for the full tour.
#[must_use = "call .build_threaded() or .build_simulated(workload) to get a runnable job"]
pub struct JobBuilder {
    stages: Vec<(Stage, bool)>,
    edges: Vec<(String, String)>,
    prebuilt: Option<Topology>,
    cluster: ClusterSpec,
    routing: RoutingSpec,
    cost: CostModel,
    policy: Option<Policy>,
    runtime: RuntimeConfig,
    transport: TransportOptions,
    checkpoint_interval: u64,
    checkpoint_mode: CheckpointMode,
    spill_dir: Option<PathBuf>,
    cold_after: u64,
    replay_log_capacity: usize,
    reconfig_mode: ReconfigMode,
}

impl Default for JobBuilder {
    fn default() -> Self {
        JobBuilder {
            stages: Vec::new(),
            edges: Vec::new(),
            prebuilt: None,
            cluster: ClusterSpec::Unset,
            routing: RoutingSpec::RoundRobin,
            cost: CostModel::default(),
            policy: None,
            runtime: RuntimeConfig::default(),
            transport: TransportOptions::default(),
            checkpoint_interval: 0,
            checkpoint_mode: CheckpointMode::Full,
            spill_dir: None,
            cold_after: 4,
            replay_log_capacity: albic_engine::runtime::DEFAULT_REPLAY_LOG_CAPACITY,
            reconfig_mode: ReconfigMode::Quiesce,
        }
    }
}

impl JobBuilder {
    /// Empty builder (same as [`Job::builder`]).
    pub fn new() -> Self {
        JobBuilder::default()
    }

    /// Add a source operator (receives external input via
    /// [`Job::inject`]).
    pub fn source(
        mut self,
        name: impl Into<String>,
        key_groups: u32,
        logic: impl Operator + 'static,
    ) -> Self {
        self.stages
            .push((Stage::new(name, key_groups, logic), true));
        self
    }

    /// Add a non-source operator.
    pub fn operator(
        mut self,
        name: impl Into<String>,
        key_groups: u32,
        logic: impl Operator + 'static,
    ) -> Self {
        self.stages
            .push((Stage::new(name, key_groups, logic), false));
        self
    }

    /// Add a stream between two operators, by name. Unknown names are a
    /// [`JobError::DanglingEdge`] at build time.
    pub fn edge(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.edges.push((from.into(), to.into()));
        self
    }

    /// Declare a linear chain in one call: the first stage is the source,
    /// each stage streams into the next.
    pub fn pipeline(mut self, stages: impl IntoIterator<Item = Stage>) -> Self {
        let mut prev: Option<String> = None;
        for s in stages {
            let name = s.name.clone();
            self.stages.push((s, prev.is_none()));
            if let Some(p) = prev {
                self.edges.push((p, name.clone()));
            }
            prev = Some(name);
        }
        self
    }

    /// Use a prebuilt [`Topology`] (e.g. the Real Jobs of
    /// `albic_workloads::jobs`) instead of declaring operators fluently.
    /// Mixing this with [`JobBuilder::source`] / [`JobBuilder::operator`]
    /// is a [`JobError::MixedTopology`].
    pub fn topology(mut self, topology: Topology) -> Self {
        self.prebuilt = Some(topology);
        self
    }

    /// A homogeneous cluster of `n` capacity-1 nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cluster = ClusterSpec::Nodes(n);
        self
    }

    /// An explicit (possibly heterogeneous) cluster.
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = ClusterSpec::Explicit(cluster);
        self
    }

    /// Round-robin initial allocation over the cluster's nodes (the
    /// default).
    pub fn routing_round_robin(mut self) -> Self {
        self.routing = RoutingSpec::RoundRobin;
        self
    }

    /// Place every key group on the cluster's first node — the
    /// deliberately skewed start the balancing demos use.
    pub fn routing_all_on_first(mut self) -> Self {
        self.routing = RoutingSpec::AllOnFirst;
        self
    }

    /// Explicit initial allocation as node *indices* into the cluster's
    /// node list (index `g` = global key group `g`).
    pub fn routing_assignment(mut self, assignment: Vec<u32>) -> Self {
        self.routing = RoutingSpec::Assignment(assignment);
        self
    }

    /// Explicit initial allocation as a raw [`RoutingTable`].
    pub fn routing_table(mut self, table: RoutingTable) -> Self {
        self.routing = RoutingSpec::Table(table);
        self
    }

    /// The engine's cost model (α, serialization costs, ...).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Data-plane tuning for [`JobBuilder::build_threaded`]: batch size,
    /// per-worker channel capacity, the pending-chunk flush interval and
    /// the periodic barrier interval.
    /// Simulated jobs ignore it (the simulator has no channels). Defaults
    /// to [`RuntimeConfig::default`].
    pub fn runtime_config(mut self, cfg: RuntimeConfig) -> Self {
        self.runtime = cfg;
        self
    }

    /// Which worker substrate [`JobBuilder::build_threaded`] runs on:
    /// in-process worker threads (the default) or networked worker
    /// processes ([`TransportOptions::Net`]). Simulated jobs ignore it.
    pub fn transport(mut self, transport: TransportOptions) -> Self {
        self.transport = transport;
        self
    }

    /// The reconfiguration policy driving the adaptation loop. Defaults
    /// to [`Policy::noop`] (measure, never reconfigure).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enable checkpoint-based failure recovery: capture a period-aligned
    /// snapshot of key-group state at each `interval`-th period boundary
    /// (and, on the threaded runtime, keep a bounded inject-side replay
    /// log), so a crashed worker's groups are restored onto survivors
    /// with exactly-once semantics. `0` (the default) disables
    /// checkpointing — a crash then recovers availability only, with
    /// state restarting empty. Post-recovery statistics are
    /// measurement-exact at *any* interval: replay log entries are tagged
    /// with their period, so recovery re-injects prior-period entries
    /// unmeasured and only the failed period's own tail counts.
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// How checkpoints are captured: [`CheckpointMode::Full`] (the
    /// default) snapshots every group's state at each capture;
    /// [`CheckpointMode::Incremental`] keeps per-group base images plus
    /// bounded delta layers, so a capture costs O(changed state) — the
    /// store compacts the layers into the base every
    /// [`albic_engine::checkpoint::DEFAULT_MAX_DELTA_LAYERS`] captures.
    /// Incremental mode requires [`JobBuilder::checkpoint_interval`] > 0.
    pub fn checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.checkpoint_mode = mode;
        self
    }

    /// Enable the cold-state spill tier (incremental mode only): key
    /// groups untouched for [`JobBuilder::cold_after`] captures serialize
    /// to one file each under `dir`, leave memory, and are faulted back
    /// in on access or recovery — total state may exceed memory, and
    /// recovery ships only the hot set (sublinear in total state). With a
    /// networked transport the directory must be on a filesystem shared
    /// by coordinator and workers.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// How many captures without traffic make a key group cold enough to
    /// spill (default 4). Only meaningful with [`JobBuilder::spill_dir`].
    pub fn cold_after(mut self, captures: u64) -> Self {
        self.cold_after = captures;
        self
    }

    /// Bound (in tuples) on the threaded runtime's inject-side replay
    /// log. Tuples past the bound cannot be replayed by a recovery and
    /// are surfaced as dropped. Defaults to
    /// [`albic_engine::runtime::DEFAULT_REPLAY_LOG_CAPACITY`]; simulated
    /// jobs ignore it.
    pub fn replay_log_capacity(mut self, capacity: usize) -> Self {
        self.replay_log_capacity = capacity;
        self
    }

    /// How plans are executed. Both modes migrate with the same epoch
    /// barrier wave, aligned per edge: [`ReconfigMode::Quiesce`] (the
    /// default) runs it inside a stop-the-world fence that pauses the
    /// whole data plane; [`ReconfigMode::Epoch`] runs it bare, so only
    /// the migrating groups pause while everything else keeps streaming.
    /// Both produce identical final states, routing and statistics.
    pub fn reconfig_mode(mut self, mode: ReconfigMode) -> Self {
        self.reconfig_mode = mode;
        self
    }

    /// Resolve the fluent operator declarations into a validated
    /// [`Topology`], or `None` when nothing was declared.
    fn resolve_topology(
        prebuilt: Option<Topology>,
        stages: Vec<(Stage, bool)>,
        edges: Vec<(String, String)>,
    ) -> Result<Option<Topology>, JobError> {
        if let Some(t) = prebuilt {
            if !stages.is_empty() || !edges.is_empty() {
                return Err(JobError::MixedTopology);
            }
            return Ok(Some(t));
        }
        if stages.is_empty() {
            if let Some((from, to)) = edges.into_iter().next() {
                let unknown = from.clone();
                return Err(JobError::DanglingEdge { from, to, unknown });
            }
            return Ok(None);
        }
        let mut seen = HashSet::new();
        for (s, _) in &stages {
            if !seen.insert(s.name.clone()) {
                return Err(JobError::DuplicateOperator(s.name.clone()));
            }
        }
        let mut tb = TopologyBuilder::new();
        let mut ids = std::collections::HashMap::new();
        for (s, is_source) in stages {
            let id = if is_source {
                tb.source(s.name.clone(), s.key_groups, s.logic)
            } else {
                tb.operator(s.name.clone(), s.key_groups, s.logic)
            };
            ids.insert(s.name, id);
        }
        for (from, to) in edges {
            let Some(&a) = ids.get(&from) else {
                let unknown = from.clone();
                return Err(JobError::DanglingEdge { from, to, unknown });
            };
            let Some(&b) = ids.get(&to) else {
                let unknown = to.clone();
                return Err(JobError::DanglingEdge { from, to, unknown });
            };
            tb.edge(a, b);
        }
        Ok(Some(tb.build().map_err(JobError::InvalidTopology)?))
    }

    /// Shared validation: topology, cluster, routing, policy.
    /// `sim_groups` is the workload's key-group count for simulated jobs.
    #[allow(clippy::type_complexity)]
    fn prepare(
        self,
        sim_groups: Option<u32>,
    ) -> Result<
        (
            Option<Topology>,
            Cluster,
            RoutingTable,
            Box<dyn ReconfigPolicy>,
            CostModel,
        ),
        JobError,
    > {
        let topology = Self::resolve_topology(self.prebuilt, self.stages, self.edges)?;
        let key_groups = match (&topology, sim_groups) {
            (Some(t), None) => t.num_key_groups(),
            (Some(t), Some(w)) => {
                if t.num_key_groups() != w {
                    return Err(JobError::WorkloadMismatch {
                        key_groups: t.num_key_groups(),
                        workload_groups: w,
                    });
                }
                w
            }
            (None, Some(w)) => w,
            (None, None) => return Err(JobError::EmptyTopology),
        };

        let cluster = match self.cluster {
            ClusterSpec::Unset | ClusterSpec::Nodes(0) => return Err(JobError::ZeroNodes),
            ClusterSpec::Nodes(n) => Cluster::homogeneous(n),
            ClusterSpec::Explicit(c) => {
                if c.nodes().is_empty() {
                    return Err(JobError::ZeroNodes);
                }
                c
            }
        };

        let ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = match self.routing {
            RoutingSpec::RoundRobin => RoutingTable::round_robin(key_groups, &ids),
            RoutingSpec::AllOnFirst => RoutingTable::all_on(key_groups, ids[0]),
            RoutingSpec::Assignment(assignment) => {
                if assignment.len() != key_groups as usize {
                    return Err(JobError::RoutingMismatch {
                        key_groups: key_groups as usize,
                        routed: assignment.len(),
                    });
                }
                let mut node_of = Vec::with_capacity(assignment.len());
                for &idx in &assignment {
                    match ids.get(idx as usize) {
                        Some(&id) => node_of.push(id),
                        None => {
                            return Err(JobError::RoutingIndexOutOfRange {
                                index: idx,
                                nodes: ids.len(),
                            })
                        }
                    }
                }
                RoutingTable::from_assignment(node_of)
            }
            RoutingSpec::Table(table) => {
                if table.len() != key_groups as usize {
                    return Err(JobError::RoutingMismatch {
                        key_groups: key_groups as usize,
                        routed: table.len(),
                    });
                }
                if let Some((_, missing)) = table.iter().find(|&(_, n)| cluster.get(n).is_none()) {
                    return Err(JobError::RoutingUnknownNode(missing));
                }
                table
            }
        };

        let policy = self
            .policy
            .unwrap_or_else(Policy::noop)
            .into_policy(topology.as_ref(), key_groups)?;
        Ok((topology, cluster, routing, policy, self.cost))
    }

    /// Validate the checkpoint knobs against each other and resolve the
    /// spill tier configuration.
    fn checkpoint_config(&self) -> Result<(CheckpointMode, Option<SpillConfig>), JobError> {
        if self.checkpoint_mode == CheckpointMode::Incremental && self.checkpoint_interval == 0 {
            return Err(JobError::IncrementalNeedsCheckpointing);
        }
        if self.spill_dir.is_some() && self.checkpoint_mode != CheckpointMode::Incremental {
            return Err(JobError::SpillRequiresIncremental);
        }
        if self.spill_dir.is_some() && self.cold_after == 0 {
            return Err(JobError::SpillNeedsColdAfter);
        }
        let spill = self.spill_dir.clone().map(|dir| SpillConfig {
            dir,
            cold_after: self.cold_after,
        });
        Ok((self.checkpoint_mode, spill))
    }

    /// Validate and launch the job on the multi-threaded runtime (one
    /// live worker thread per node, real state migration).
    pub fn build_threaded(self) -> Result<Job<Runtime>, JobError> {
        let runtime = self.runtime;
        let transport = self.transport.clone();
        let (checkpoint, log_capacity) = (self.checkpoint_interval, self.replay_log_capacity);
        let mode = self.reconfig_mode;
        let (ckpt_mode, spill) = self.checkpoint_config()?;
        let (topology, cluster, routing, policy, cost) = self.prepare(None)?;
        let topology = topology.expect("prepare rejects threaded jobs without a topology");
        let mut engine =
            Runtime::start_with_options(topology, cluster, routing, cost, runtime, transport)
                .map_err(|e| JobError::TransportFailed(e.to_string()))?;
        if checkpoint > 0 {
            engine.configure_recovery(checkpoint, log_capacity);
            let dir = spill.as_ref().map(|s| s.dir.clone());
            if let Err(e) = engine.configure_checkpointing(ckpt_mode, spill) {
                engine.shutdown();
                return Err(JobError::SpillDirUnavailable {
                    dir: dir.unwrap_or_default(),
                    reason: e.to_string(),
                });
            }
        }
        engine.set_reconfig_mode(mode);
        Ok(Job {
            ctl: Controller::new(engine),
            policy,
        })
    }

    /// Validate and launch the job on the deterministic rate-based
    /// simulator, driven by `workload`. Jobs without declared operators
    /// take their key-group space from the workload model.
    pub fn build_simulated<W: WorkloadModel>(
        self,
        workload: W,
    ) -> Result<Job<SimEngine<W>>, JobError> {
        let groups = workload.num_groups();
        let checkpoint = self.checkpoint_interval;
        let mode = self.reconfig_mode;
        let cold_after = self.cold_after;
        let (ckpt_mode, spill) = self.checkpoint_config()?;
        let (_topology, cluster, routing, policy, cost) = self.prepare(Some(groups))?;
        let mut engine = SimEngine::new(workload, cluster, routing, cost);
        engine.set_checkpoint_interval(checkpoint);
        engine.set_checkpointing(ckpt_mode, cold_after, spill.is_some());
        engine.set_reconfig_mode(mode);
        Ok(Job {
            ctl: Controller::new(engine),
            policy,
        })
    }
}

/// Everything one adaptation round of [`Job::run_with`] produced.
pub struct JobTick<'a> {
    /// Zero-based period index.
    pub period: u64,
    /// The round's full [`StepReport`] (pre-plan statistics, the plan,
    /// its execution, terminated nodes).
    pub report: &'a StepReport,
    /// The period's history record *after* the plan was applied.
    pub record: &'a PeriodRecord,
    /// The cluster as it was when the round's statistics were measured
    /// (pre-apply; same snapshot as [`StepReport::cluster`]), which is
    /// what external evaluators score `report.stats` against. Post-apply
    /// node counts are in [`JobTick::record`].
    pub cluster: &'a Cluster,
}

/// Aggregated run summary: per-period loads, migrations and node counts
/// plus whole-run totals.
#[derive(Debug, Clone)]
#[must_use = "a summary is pure data; print or inspect it"]
pub struct JobSummary {
    /// Completed periods.
    pub periods: usize,
    /// Key-group migrations executed over the whole run.
    pub total_migrations: usize,
    /// Total modeled migration cost.
    pub total_migration_cost: f64,
    /// Total modeled migration pause seconds.
    pub total_pause_secs: f64,
    /// Mean per-period load distance.
    pub mean_load_distance: f64,
    /// Last period's load distance.
    pub final_load_distance: f64,
    /// Largest node count the run reached.
    pub peak_nodes: usize,
    /// Node count after the last period.
    pub final_nodes: usize,
    /// Workers that crashed and were recovered over the whole run.
    pub total_failed_nodes: usize,
    /// Key groups restored from checkpoints by those recoveries.
    pub total_groups_restored: usize,
    /// Tuples replayed from the inject-side log by those recoveries.
    pub total_tuples_replayed: f64,
    /// Total seconds spent in recovery.
    pub total_recovery_secs: f64,
    /// Total bytes captured by checkpoints over the run — in incremental
    /// mode this is O(changed state) per capture, not O(total state).
    pub total_checkpoint_bytes: u64,
    /// Largest un-compacted delta-layer footprint any period reported.
    pub max_delta_bytes: u64,
    /// Most key groups any period held on the cold-state spill tier.
    pub max_spilled_groups: usize,
    /// Spill records that failed a read or a write over the run (0 in a
    /// healthy run; see [`PeriodRecord::spill_failures`]).
    pub total_spill_failures: u64,
    /// The raw per-period records (loads, migrations, node counts).
    pub records: Vec<PeriodRecord>,
}

impl JobSummary {
    fn from_records(records: &[PeriodRecord]) -> JobSummary {
        let n = records.len();
        JobSummary {
            periods: n,
            total_migrations: records.iter().map(|r| r.migrations).sum(),
            total_migration_cost: records.iter().map(|r| r.migration_cost).sum(),
            total_pause_secs: records.iter().map(|r| r.migration_pause_secs).sum(),
            mean_load_distance: if n == 0 {
                0.0
            } else {
                records.iter().map(|r| r.load_distance).sum::<f64>() / n as f64
            },
            final_load_distance: records.last().map(|r| r.load_distance).unwrap_or(0.0),
            peak_nodes: records.iter().map(|r| r.num_nodes).max().unwrap_or(0),
            final_nodes: records.last().map(|r| r.num_nodes).unwrap_or(0),
            total_failed_nodes: records.iter().map(|r| r.failed_nodes).sum(),
            total_groups_restored: records.iter().map(|r| r.groups_restored).sum(),
            total_tuples_replayed: records.iter().map(|r| r.tuples_replayed).sum(),
            total_recovery_secs: records.iter().map(|r| r.recovery_secs).sum(),
            total_checkpoint_bytes: records.iter().map(|r| r.checkpoint_bytes).sum(),
            max_delta_bytes: records.iter().map(|r| r.delta_bytes).max().unwrap_or(0),
            max_spilled_groups: records.iter().map(|r| r.spilled_groups).max().unwrap_or(0),
            total_spill_failures: records.iter().map(|r| r.spill_failures).sum(),
            records: records.to_vec(),
        }
    }
}

/// A running job: the engine (either substrate), its [`Controller`], and
/// the policy, behind one handle. Built by [`Job::builder`].
pub struct Job<E: ReconfigEngine> {
    ctl: Controller<'static, E>,
    policy: Box<dyn ReconfigPolicy>,
}

impl<E: ReconfigEngine> std::fmt::Debug for Job<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("policy", &self.policy.name())
            .field("periods", &self.ctl.history().len())
            .finish_non_exhaustive()
    }
}

impl<E: ReconfigEngine> Job<E> {
    /// One adaptation round (Algorithm 1): recover → settle →
    /// housekeeping → measure → plan → apply.
    pub fn step(&mut self) -> StepReport {
        self.ctl.step(self.policy.as_mut())
    }

    /// Run `periods` adaptation rounds; returns the full metric history.
    pub fn run(&mut self, periods: usize) -> &[PeriodRecord] {
        for _ in 0..periods {
            let _ = self.step();
        }
        self.ctl.history()
    }

    /// Run `periods` adaptation rounds, handing every round's
    /// [`JobTick`] to `f` (per-period printing, external evaluators like
    /// PoTC, custom convergence checks).
    pub fn run_with(&mut self, periods: usize, mut f: impl FnMut(&JobTick<'_>)) -> &[PeriodRecord] {
        for _ in 0..periods {
            let report = self.ctl.step(self.policy.as_mut());
            let record = self.ctl.history().last().expect("step records history");
            f(&JobTick {
                period: record.period,
                report: &report,
                record,
                cluster: &report.cluster,
            });
        }
        self.ctl.history()
    }

    /// Close one statistics period *without* running the policy — for
    /// measuring the effect of the last plan under fresh load.
    pub fn measure(&mut self) -> PeriodStats {
        self.ctl.engine_mut().settle();
        self.ctl.engine_mut().end_period()
    }

    /// Apply an explicit reconfiguration plan, bypassing the policy.
    /// Executes through the engine's configured
    /// [`JobBuilder::reconfig_mode`], exactly like a policy-driven apply.
    pub fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        self.ctl.engine_mut().apply(plan)
    }

    /// Metric history so far, one record per completed period.
    pub fn history(&self) -> &[PeriodRecord] {
        self.ctl.history()
    }

    /// Aggregate the run so far into a [`JobSummary`].
    pub fn report(&self) -> JobSummary {
        JobSummary::from_records(self.ctl.history())
    }

    /// The current cluster.
    pub fn cluster(&self) -> &Cluster {
        self.ctl.engine().view().cluster
    }

    /// The driving policy's short name (`"milp"`, `"albic"`, ...).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        self.ctl.engine()
    }

    /// Mutable access to the underlying engine (advanced wiring).
    pub fn engine_mut(&mut self) -> &mut E {
        self.ctl.engine_mut()
    }

    /// Consume the job, returning the engine.
    pub fn into_engine(self) -> E {
        self.ctl.into_engine()
    }
}

impl Job<Runtime> {
    /// Entry point of the fluent API: an empty [`JobBuilder`].
    pub fn builder() -> JobBuilder {
        JobBuilder::new()
    }

    /// Inject external tuples into a source operator, by name. Tuples are
    /// routed by key to the worker hosting their key group.
    ///
    /// # Panics
    ///
    /// If `source` is not an operator of the job's topology — operator
    /// names were validated when the job was built, so an unknown name
    /// here is a programming error, not a runtime condition.
    pub fn inject(&mut self, source: &str, tuples: impl IntoIterator<Item = Tuple>) -> &mut Self {
        let op = self
            .ctl
            .engine()
            .topology()
            .operator_by_name(source)
            .unwrap_or_else(|| panic!("job has no operator named {source:?}"));
        self.ctl.engine().inject(op, tuples);
        self
    }

    /// A cloneable, thread-safe injector bound to one source operator, so
    /// producer threads can stream tuples into the job concurrently with
    /// the adaptation loop (see [`Injector`] for the batching and
    /// backpressure semantics).
    ///
    /// # Panics
    ///
    /// If `source` is not an operator of the job's topology (same
    /// contract as [`Job::inject`]).
    pub fn injector(&self, source: &str) -> SourceInjector {
        let op = self
            .ctl
            .engine()
            .topology()
            .operator_by_name(source)
            .unwrap_or_else(|| panic!("job has no operator named {source:?}"));
        SourceInjector {
            injector: self.ctl.engine().injector(),
            op,
        }
    }

    /// Quiesce all in-flight tuples (steps do this automatically; only
    /// needed before reading state out-of-band, e.g. `probe_state`).
    pub fn settle(&mut self) {
        self.ctl.engine_mut().settle();
    }

    /// Stop all workers and join their threads.
    pub fn shutdown(self) {
        self.ctl.into_engine().shutdown();
    }
}

/// An [`Injector`] bound to one named source operator of a threaded job —
/// the handle producer threads use to stream into a running pipeline.
/// Obtained via [`Job::injector`]; cloning is cheap (shared `Arc`s).
#[derive(Clone)]
pub struct SourceInjector {
    injector: Injector,
    op: albic_types::OperatorId,
}

impl SourceInjector {
    /// Inject tuples into the bound source. Blocks while destination
    /// worker queues are at capacity (backpressure to the producer).
    pub fn inject(&self, tuples: impl IntoIterator<Item = Tuple>) {
        self.injector.inject(self.op, tuples);
    }

    /// Tuples the runtime failed to deliver so far (see
    /// [`Injector::dropped_so_far`]).
    pub fn dropped_so_far(&self) -> u64 {
        self.injector.dropped_so_far()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albic_engine::operator::{Counting, Identity};
    use albic_engine::sim::WorkloadSnapshot;
    use albic_engine::tuple::Value;
    use albic_types::Period;

    struct Flat {
        groups: u32,
        tuples_each: f64,
    }
    impl WorkloadModel for Flat {
        fn num_groups(&self) -> u32 {
            self.groups
        }
        fn snapshot(&mut self, _p: Period) -> WorkloadSnapshot {
            WorkloadSnapshot {
                group_tuples: vec![self.tuples_each; self.groups as usize],
                group_cost: vec![1.0; self.groups as usize],
                comm: vec![],
                state_bytes: vec![512.0; self.groups as usize],
            }
        }
    }

    #[test]
    fn simulated_job_without_topology_balances() {
        let mut job = Job::builder()
            .nodes(2)
            .routing_all_on_first()
            .policy(Policy::milp())
            .build_simulated(Flat {
                groups: 8,
                tuples_each: 1000.0,
            })
            .expect("valid job");
        let report = job.step();
        assert!(!report.plan.migrations.is_empty(), "skew must be fixed");
        assert!(report.apply.failed.is_empty());
        let summary = job.report();
        assert_eq!(summary.periods, 1);
        assert_eq!(summary.total_migrations, report.apply.migrations.len());
        assert_eq!(summary.final_nodes, 2);
    }

    #[test]
    fn threaded_job_runs_the_full_loop() {
        let mut job = Job::builder()
            .source("events", 4, Identity)
            .operator("count", 4, Counting)
            .edge("events", "count")
            .nodes(2)
            .routing_all_on_first()
            .policy(Policy::milp())
            .build_threaded()
            .expect("valid job");
        job.inject(
            "events",
            (0..500).map(|i| Tuple::keyed(&(i % 16), Value::Int(i), 0)),
        );
        let report = job.step();
        assert!(report.stats.total_tuples > 0.0);
        assert!(!report.plan.migrations.is_empty());
        assert!(report.apply.failed.is_empty());
        job.shutdown();
    }

    #[test]
    fn pipeline_is_sugar_for_a_chain() {
        let mut job = Job::builder()
            .pipeline([stage("events", 4, Identity), stage("count", 4, Counting)])
            .nodes(1)
            .build_threaded()
            .expect("valid job");
        job.inject(
            "events",
            (0..10).map(|i| Tuple::keyed(&i, Value::Int(i), 0)),
        );
        let report = job.step();
        // 10 at the source + 10 at the counter.
        assert!((report.stats.total_tuples - 20.0).abs() < 1e-9);
        assert_eq!(job.engine().topology().depth(), 1);
        job.shutdown();
    }

    #[test]
    fn runtime_config_reaches_the_engine() {
        let job = Job::builder()
            .pipeline([stage("events", 2, Identity), stage("count", 2, Counting)])
            .nodes(1)
            .runtime_config(RuntimeConfig {
                batch_size: 5,
                channel_capacity: 9,
                ..RuntimeConfig::default()
            })
            .build_threaded()
            .expect("valid job");
        assert_eq!(job.engine().config().batch_size, 5);
        assert_eq!(job.engine().config().channel_capacity, 9);
        job.shutdown();
    }

    #[test]
    fn albic_derives_downstream_counts_from_the_topology() {
        let job = Job::builder()
            .source("a", 4, Identity)
            .operator("b", 4, Counting)
            .edge("a", "b")
            .nodes(2)
            .policy(Policy::albic())
            .build_threaded()
            .expect("topology provides downstream counts");
        assert_eq!(job.policy_name(), "albic");
        job.shutdown();
    }

    #[test]
    fn run_with_sees_every_round() {
        let mut job = Job::builder()
            .nodes(2)
            .policy(Policy::noop())
            .build_simulated(Flat {
                groups: 4,
                tuples_each: 100.0,
            })
            .expect("valid job");
        let mut seen = Vec::new();
        let _ = job.run_with(3, |t| seen.push((t.period, t.cluster.len())));
        assert_eq!(seen, vec![(0, 2), (1, 2), (2, 2)]);
        assert_eq!(job.history().len(), 3);
    }

    #[test]
    fn scaling_passthrough_reaches_the_framework() {
        // Overload one node; a milp+scaling policy must scale out.
        let mut job = Job::builder()
            .nodes(1)
            .policy(Policy::milp().with_scaling(35.0, 80.0, 60.0))
            .build_simulated(Flat {
                groups: 8,
                tuples_each: 5000.0,
            })
            .expect("valid job");
        let mut measured_nodes = 0;
        let mut recorded_nodes = 0;
        let _ = job.run_with(1, |t| {
            assert!(!t.report.plan.add_nodes.is_empty(), "must scale out");
            measured_nodes = t.cluster.len();
            recorded_nodes = t.record.num_nodes;
        });
        // The tick's cluster is the measurement-time snapshot (before the
        // plan added nodes); the record and the live cluster are post-apply.
        assert_eq!(measured_nodes, 1);
        assert!(recorded_nodes > 1);
        assert!(job.cluster().len() > 1);
    }
}
