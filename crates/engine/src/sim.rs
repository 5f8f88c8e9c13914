//! Deterministic discrete-time cluster simulator.
//!
//! One tick = one statistics period (SPL). A [`WorkloadModel`] describes,
//! per period, how many tuples each key group processes, the
//! `out(g_i, g_j)` flows between groups, and the resident state sizes; the
//! simulator combines that with the current routing table and cost model
//! into the same [`PeriodStats`] a real deployment would measure, executes
//! reconfiguration plans, and keeps a metric history ([`PeriodRecord`])
//! from which every figure of the paper is regenerated.
//!
//! The simulator deliberately models *rates*, not individual tuples — the
//! reconfiguration algorithms only ever observe per-period aggregates, so
//! this preserves exactly the signals they act on while letting 90-period,
//! 60-node, 1200-group experiments run in milliseconds. Individual-tuple
//! behaviour (buffering, replay, ordering) is covered by the threaded
//! [`crate::runtime`].
//!
//! Both substrates implement the shared
//! [`ReconfigEngine`] trait, so
//! controllers and policies are substrate-agnostic: anything driven here
//! also runs unchanged on the threaded runtime.

use std::collections::BTreeSet;

use albic_types::{KeyGroupId, NodeId, Period, PeriodClock};

use crate::checkpoint::{CheckpointMode, DEFAULT_MAX_DELTA_LAYERS};
use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::fault::{recovery_placement, RecoveryReport};
use crate::migration::{Migration, MigrationReport};
use crate::reconfig::{ClusterView, ReconfigPlan};
use crate::routing::RoutingTable;
use crate::stats::{PeriodStats, StatsCollector};
use crate::substrate::{ApplyReport, ReconfigEngine, ReconfigMode};

pub use crate::substrate::PeriodRecord;

/// What the workload did during one period.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSnapshot {
    /// Tuples processed per key group (indexed by global key-group id).
    pub group_tuples: Vec<f64>,
    /// Relative CPU cost multiplier per key group (1.0 if empty).
    pub group_cost: Vec<f64>,
    /// `(from, to, tuples)` inter-group flows.
    pub comm: Vec<(KeyGroupId, KeyGroupId, f64)>,
    /// Resident state bytes per key group.
    pub state_bytes: Vec<f64>,
}

/// A source of per-period workload descriptions.
pub trait WorkloadModel {
    /// Total number of key groups the model describes.
    fn num_groups(&self) -> u32;
    /// Produce the next period's workload.
    fn snapshot(&mut self, period: Period) -> WorkloadSnapshot;
}

/// The simulator.
pub struct SimEngine<W: WorkloadModel> {
    workload: W,
    cluster: Cluster,
    routing: RoutingTable,
    cost: CostModel,
    clock: PeriodClock,
    history: Vec<PeriodRecord>,
    last_stats: Option<PeriodStats>,
    last_snapshot: Option<WorkloadSnapshot>,
    /// Checkpoint every n-th period boundary (0 = disabled). The
    /// simulator models state at the rate level, so its "checkpoint" is
    /// the period marker recovery reports restoring from.
    checkpoint_interval: u64,
    /// The period the latest modeled checkpoint was captured at.
    last_checkpoint: Option<u64>,
    /// Nodes failed by [`SimEngine::inject_fault`], pending recovery.
    failed: Vec<NodeId>,
    /// Recovery accounting folded into the next period's record:
    /// `(failed nodes, groups restored, modeled recovery seconds)`.
    pending_recovery: (usize, usize, f64),
    /// The mode [`SimEngine::apply`] charges migration pauses in.
    mode: ReconfigMode,
    /// Mirror of the runtime's [`CheckpointMode`]: in incremental mode a
    /// modeled capture costs only the state bytes of groups with traffic
    /// since the last capture, not total state.
    ckpt_mode: CheckpointMode,
    /// Mirror of [`crate::checkpoint::SpillConfig::cold_after`]; only
    /// meaningful with `spill_enabled`.
    cold_after: u64,
    /// Whether the cold-state spill tier is modeled: cold groups leave
    /// the modeled hot set and recovery skips their restore cost (they
    /// are faulted in lazily on the runtime).
    spill_enabled: bool,
    /// Groups with traffic since the last modeled capture.
    ckpt_dirty: BTreeSet<u32>,
    /// Last period index each group saw traffic (`None` = never).
    last_traffic: Vec<Option<u64>>,
    /// Un-compacted delta layers since the last base fold.
    ckpt_layers: usize,
    /// Groups present in any un-compacted layer (not yet spillable —
    /// their newest image is a layer entry, mirroring the store).
    layer_groups: BTreeSet<u32>,
    /// Modeled un-compacted delta bytes.
    delta_bytes: u64,
    /// Groups modeled on the spill tier.
    spilled: BTreeSet<u32>,
    /// Whether the (always full) first capture has happened.
    captured_once: bool,
}

impl<W: WorkloadModel> SimEngine<W> {
    /// Create a simulator with an explicit initial allocation.
    pub fn new(workload: W, cluster: Cluster, routing: RoutingTable, cost: CostModel) -> Self {
        assert_eq!(
            routing.len(),
            workload.num_groups() as usize,
            "routing table must cover every key group"
        );
        SimEngine {
            workload,
            cluster,
            routing,
            cost,
            clock: PeriodClock::new(),
            history: Vec::new(),
            last_stats: None,
            last_snapshot: None,
            checkpoint_interval: 0,
            last_checkpoint: None,
            failed: Vec::new(),
            pending_recovery: (0, 0, 0.0),
            mode: ReconfigMode::Quiesce,
            ckpt_mode: CheckpointMode::Full,
            cold_after: 0,
            spill_enabled: false,
            ckpt_dirty: BTreeSet::new(),
            last_traffic: Vec::new(),
            ckpt_layers: 0,
            layer_groups: BTreeSet::new(),
            delta_bytes: 0,
            spilled: BTreeSet::new(),
            captured_once: false,
        }
    }

    /// Create a simulator with round-robin initial allocation over the
    /// cluster's current nodes.
    pub fn with_round_robin(workload: W, cluster: Cluster, cost: CostModel) -> Self {
        let nodes: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(workload.num_groups(), &nodes);
        Self::new(workload, cluster, routing, cost)
    }

    /// The cluster (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The routing table (read-only).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Metric history so far.
    pub fn history(&self) -> &[PeriodRecord] {
        &self.history
    }

    /// Statistics of the most recent period.
    pub fn last_stats(&self) -> Option<&PeriodStats> {
        self.last_stats.as_ref()
    }

    /// Checkpoint at every `interval`-th period boundary (0 disables),
    /// mirroring the cadence of
    /// [`crate::runtime::Runtime::configure_recovery`]: the simulator's
    /// state is the
    /// workload model, so the checkpoint is a period marker, but the
    /// alignment keeps the two substrates' recovery reports comparable.
    pub fn set_checkpoint_interval(&mut self, interval: u64) {
        self.checkpoint_interval = interval;
    }

    /// Mirror of [`crate::runtime::Runtime::configure_checkpointing`] at
    /// the cost-model level. In [`CheckpointMode::Incremental`] a modeled
    /// capture costs only the state bytes of groups with traffic since the
    /// last capture (the first capture is always full), delta layers fold
    /// into the base every [`DEFAULT_MAX_DELTA_LAYERS`] captures, and —
    /// when `spill` is set — groups without traffic for `cold_after`
    /// periods move to the modeled spill tier: they stop counting against
    /// eager recovery cost, exactly like the runtime's lazily faulted-in
    /// groups. `spill` and `cold_after` are ignored in full mode.
    pub fn set_checkpointing(&mut self, mode: CheckpointMode, cold_after: u64, spill: bool) {
        self.ckpt_mode = mode;
        self.cold_after = cold_after;
        self.spill_enabled = spill && mode == CheckpointMode::Incremental;
        self.ckpt_dirty.clear();
        self.layer_groups.clear();
        self.spilled.clear();
        self.ckpt_layers = 0;
        self.delta_bytes = 0;
        self.captured_once = false;
    }

    /// Select the mode [`SimEngine::apply`] models plans in, mirroring
    /// [`crate::runtime::Runtime::set_reconfig_mode`]. The mode only
    /// changes the *pause* accounting
    /// ([`ReconfigMode::Quiesce`] charges the sum of the move pauses,
    /// [`ReconfigMode::Epoch`] the slowest move); every decision signal —
    /// loads, flows, allocations — is identical, which is what keeps the
    /// substrates equivalent in both modes.
    pub fn set_reconfig_mode(&mut self, mode: ReconfigMode) {
        self.mode = mode;
    }

    /// The currently selected reconfiguration mode.
    pub fn reconfig_mode(&self) -> ReconfigMode {
        self.mode
    }

    /// Advance one statistics period: draw the workload, measure, record.
    pub fn tick(&mut self) -> PeriodStats {
        let period = self.clock.advance();
        let snap = self.workload.snapshot(period);
        let stats = self.stats_from_snapshot(period, &snap);

        // Mirror the runtime's dirty tracking: a group with traffic this
        // period is dirty for the next capture, and traffic faults a
        // spilled group back in.
        self.last_traffic
            .resize(self.routing.len().max(self.last_traffic.len()), None);
        for (g, &tuples) in snap.group_tuples.iter().enumerate() {
            if tuples > 0.0 {
                self.ckpt_dirty.insert(g as u32);
                if let Some(slot) = self.last_traffic.get_mut(g) {
                    *slot = Some(period.index());
                }
                self.spilled.remove(&(g as u32));
            }
        }
        let checkpoint_bytes = if self.checkpoint_interval > 0
            && (period.index() + 1) % self.checkpoint_interval == 0
        {
            self.last_checkpoint = Some(period.index());
            self.capture_cost(period.index(), &snap)
        } else {
            0
        };
        self.last_snapshot = Some(snap);

        let (failed_nodes, groups_restored, recovery_secs) =
            std::mem::take(&mut self.pending_recovery);
        self.history.push(PeriodRecord {
            period: period.index(),
            load_distance: stats.load_distance(&self.cluster),
            mean_load: stats.mean_load(&self.cluster),
            total_system_load: stats.total_system_load(),
            collocation_factor: stats.collocation_factor(),
            migrations: 0,
            migration_cost: 0.0,
            migration_pause_secs: 0.0,
            migration_state_bytes: 0,
            migration_wire_bytes: 0,
            num_nodes: self.cluster.len(),
            marked_nodes: self.cluster.marked().count(),
            dropped_tuples: 0.0,
            failed_nodes,
            groups_restored,
            tuples_replayed: 0.0,
            recovery_secs,
            checkpoint_bytes,
            delta_bytes: self.delta_bytes,
            spilled_groups: self.spilled.len(),
            spill_failures: 0,
        });
        self.last_stats = Some(stats.clone());
        stats
    }

    /// Model one checkpoint capture at the end of `period`, mirroring
    /// [`crate::checkpoint::CheckpointStore::ingest`]: a full capture
    /// costs every group's state bytes, an incremental one only the dirty
    /// groups'; delta layers fold into the base after
    /// [`DEFAULT_MAX_DELTA_LAYERS`] captures; then cold groups spill.
    fn capture_cost(&mut self, period: u64, snap: &WorkloadSnapshot) -> u64 {
        let state =
            |g: u32| -> u64 { snap.state_bytes.get(g as usize).copied().unwrap_or(0.0) as u64 };
        let full = self.ckpt_mode == CheckpointMode::Full || !self.captured_once;
        let bytes = if full {
            self.ckpt_layers = 0;
            self.layer_groups.clear();
            self.delta_bytes = 0;
            self.captured_once = true;
            (0..self.routing.len() as u32).map(state).sum()
        } else {
            let captured: u64 = self.ckpt_dirty.iter().map(|&g| state(g)).sum();
            self.ckpt_layers += 1;
            self.layer_groups.extend(self.ckpt_dirty.iter().copied());
            self.delta_bytes += captured;
            if self.ckpt_layers >= DEFAULT_MAX_DELTA_LAYERS {
                // Compaction folds the layers into the base.
                self.ckpt_layers = 0;
                self.layer_groups.clear();
                self.delta_bytes = 0;
            }
            captured
        };
        self.ckpt_dirty.clear();
        if self.spill_enabled && self.cold_after > 0 {
            // Mirror of `CheckpointStore::spill_cold`: only base-resident
            // groups (not in any un-compacted layer) with no traffic for
            // `cold_after` periods leave the modeled hot set.
            for g in 0..self.routing.len() as u32 {
                let idle = match self.last_traffic.get(g as usize).copied().flatten() {
                    Some(last) => period.saturating_sub(last),
                    None => period + 1,
                };
                if idle >= self.cold_after && !self.layer_groups.contains(&g) {
                    self.spilled.insert(g);
                }
            }
        }
        bytes
    }

    fn stats_from_snapshot(&self, period: Period, snap: &WorkloadSnapshot) -> PeriodStats {
        let num_groups = self.routing.len();
        let mut collector = StatsCollector::new();
        for g in 0..num_groups {
            let kg = KeyGroupId::new(g as u32);
            let tuples = snap.group_tuples.get(g).copied().unwrap_or(0.0);
            let op_cost = snap.group_cost.get(g).copied().unwrap_or(1.0);
            collector.record_processed(kg, tuples, op_cost);
            let state = snap.state_bytes.get(g).copied().unwrap_or(0.0);
            collector.set_state_bytes(kg, state);
        }
        for &(from, to, n) in &snap.comm {
            let crossed = self.routing.node_of(from) != self.routing.node_of(to);
            collector.record_comm(from, to, n, crossed);
        }
        PeriodStats::compute(
            period,
            &collector,
            self.routing.assignment().to_vec(),
            &self.cluster,
            &self.cost,
        )
    }

    /// Execute a reconfiguration plan: apply migrations (with cost and
    /// pause accounting against the latest state sizes), add nodes, and
    /// mark nodes for removal. Accounting is attached to the most recent
    /// period's record; the pause is charged per the engine's
    /// [`ReconfigMode`].
    pub fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        self.apply_inner(plan, self.mode)
    }

    fn apply_inner(&mut self, plan: &ReconfigPlan, mode: ReconfigMode) -> ApplyReport {
        let mut report = ApplyReport::default();
        let state_sizes: Vec<f64> = self
            .last_stats
            .as_ref()
            .map(|s| s.group_state_bytes.clone())
            .unwrap_or_else(|| vec![0.0; self.routing.len()]);

        // Nodes are acquired before migrations run, so a plan may target
        // the ids it previewed with `Cluster::peek_next_ids`.
        for &cap in &plan.add_nodes {
            report.added.push(self.cluster.add_node(cap));
        }
        for &Migration { group, to } in &plan.migrations {
            let from = self.routing.node_of(group);
            if from == to {
                continue;
            }
            if self.cluster.get(to).is_none() {
                report.failed.push(crate::substrate::FailedMigration {
                    group,
                    from,
                    to,
                    reason: crate::substrate::MigrationFailure::UnknownDestination,
                });
                continue;
            }
            self.routing.reroute(group, to);
            let bytes = state_sizes.get(group.index()).copied().unwrap_or(0.0) as usize;
            report.migrations.push(MigrationReport::from_cost_model(
                group, from, to, bytes, &self.cost,
            ));
        }
        for &node in &plan.mark_removal {
            if self.cluster.mark_for_removal(node) {
                report.marked.push(node);
            }
        }

        // Re-measure the period under the *new* placement: the evaluation
        // figures plot metrics "directly after applying migrations", and
        // cross-node traffic (hence total load and collocation factor)
        // changes the moment routing changes.
        let refreshed = self.last_snapshot.take().map(|snap| {
            let stats = self.stats_from_snapshot(
                self.last_stats
                    .as_ref()
                    .map(|s| s.period)
                    .unwrap_or_default(),
                &snap,
            );
            self.last_snapshot = Some(snap);
            stats
        });
        if let Some(rec) = self.history.last_mut() {
            rec.migrations += report.migrations.len();
            rec.migration_cost += report.total_cost();
            rec.migration_pause_secs += mode.charged_pause_secs(&report);
            // The simulator never serializes state, so wire bytes equal
            // the modeled state size (no compression to measure).
            rec.migration_state_bytes += report.total_state_bytes();
            rec.migration_wire_bytes += report.total_wire_bytes();
            rec.num_nodes = self.cluster.len();
            rec.marked_nodes = self.cluster.marked().count();
            if let Some(stats) = &refreshed {
                rec.load_distance = stats.load_distance(&self.cluster);
                rec.mean_load = stats.mean_load(&self.cluster);
                rec.total_system_load = stats.total_system_load();
                rec.collocation_factor = stats.collocation_factor();
            }
        }
        if let Some(stats) = refreshed {
            self.last_stats = Some(stats);
        }
        report
    }

    /// Terminate every marked node whose key groups have all been drained
    /// (Algorithm 1, lines 1-3). Returns the terminated node ids.
    pub fn terminate_drained(&mut self) -> Vec<NodeId> {
        let marked: Vec<NodeId> = self.cluster.marked().map(|n| n.id).collect();
        let mut terminated = Vec::new();
        for node in marked {
            if self.routing.groups_on(node).is_empty() {
                self.cluster.terminate(node);
                terminated.push(node);
            }
        }
        terminated
    }

    /// Fail a simulated node abruptly: it keeps its routing entries (its
    /// groups strand, exactly like a crashed worker's) until
    /// [`SimEngine::recover`] re-homes them. Returns `false` for unknown
    /// or already-failed nodes.
    pub fn inject_fault(&mut self, node: NodeId) -> bool {
        if self.cluster.get(node).is_none() || self.failed.contains(&node) {
            return false;
        }
        self.failed.push(node);
        true
    }

    /// Recover failed nodes: re-home their key groups onto the surviving
    /// alive nodes with the *same* deterministic placement the threaded
    /// runtime uses ([`recovery_placement`]), release the dead nodes, and
    /// model the restore cost — restoring a group from a checkpoint costs
    /// what migrating its state would (`mc_k = α·|σ_k|`), the integrative
    /// point of sharing one mechanism.
    pub fn recover(&mut self) -> RecoveryReport {
        if self.failed.is_empty() {
            return RecoveryReport::default();
        }
        let mut report = RecoveryReport {
            failed: std::mem::take(&mut self.failed),
            checkpoint_period: self.last_checkpoint,
            ..RecoveryReport::default()
        };
        let survivors: Vec<NodeId> = self
            .cluster
            .alive()
            .map(|n| n.id)
            .filter(|n| !report.failed.contains(n))
            .collect();
        if !survivors.is_empty() {
            let mut lost: Vec<KeyGroupId> = Vec::new();
            for &node in &report.failed {
                lost.extend(self.routing.groups_on(node));
            }
            let state_sizes: Vec<f64> = self
                .last_stats
                .as_ref()
                .map(|s| s.group_state_bytes.clone())
                .unwrap_or_default();
            for (kg, to) in recovery_placement(&lost, &survivors) {
                self.routing.reroute(kg, to);
                if self.spilled.contains(&(kg.index() as u32)) {
                    // Spilled groups are faulted in lazily on the runtime:
                    // re-homing them costs nothing eagerly, which is what
                    // keeps recovery sublinear in total state.
                    report.groups_spilled += 1;
                    continue;
                }
                let bytes = state_sizes.get(kg.index()).copied().unwrap_or(0.0) as usize;
                report.recovery_secs += self.cost.migration_pause(self.cost.migration_cost(bytes));
            }
            report.groups_restored = lost.len();
        }
        for &node in &report.failed {
            self.cluster.terminate(node);
        }
        self.pending_recovery.0 += report.failed.len();
        self.pending_recovery.1 += report.groups_restored;
        self.pending_recovery.2 += report.recovery_secs;
        report
    }
}

impl<W: WorkloadModel> ReconfigEngine for SimEngine<W> {
    fn terminate_drained(&mut self) -> Vec<NodeId> {
        SimEngine::terminate_drained(self)
    }

    /// Ending a simulated period *is* a tick: the workload model produces
    /// the period's rates and the engine measures them.
    fn end_period(&mut self) -> PeriodStats {
        self.tick()
    }

    fn view(&self) -> ClusterView<'_> {
        ClusterView {
            cluster: &self.cluster,
            cost: &self.cost,
        }
    }

    fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        SimEngine::apply(self, plan)
    }

    fn reconfig_mode(&self) -> ReconfigMode {
        self.mode
    }

    fn apply_epoch(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        self.apply_inner(plan, ReconfigMode::Epoch)
    }

    fn history(&self) -> &[PeriodRecord] {
        SimEngine::history(self)
    }

    fn inject_fault(&mut self, node: NodeId) -> bool {
        SimEngine::inject_fault(self, node)
    }

    fn recover(&mut self) -> RecoveryReport {
        SimEngine::recover(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed workload: group g processes `100·(g+1)` tuples; groups 0→1
    /// exchange 50 tuples; states of 1 KiB each.
    struct FixedWorkload {
        groups: u32,
    }

    impl WorkloadModel for FixedWorkload {
        fn num_groups(&self) -> u32 {
            self.groups
        }
        fn snapshot(&mut self, _period: Period) -> WorkloadSnapshot {
            let n = self.groups as usize;
            WorkloadSnapshot {
                group_tuples: (0..n).map(|g| 100.0 * (g + 1) as f64).collect(),
                group_cost: vec![1.0; n],
                comm: vec![(KeyGroupId::new(0), KeyGroupId::new(1), 50.0)],
                state_bytes: vec![1024.0; n],
            }
        }
    }

    fn engine(groups: u32, nodes: usize) -> SimEngine<FixedWorkload> {
        SimEngine::with_round_robin(
            FixedWorkload { groups },
            Cluster::homogeneous(nodes),
            CostModel::default(),
        )
    }

    #[test]
    fn tick_produces_stats_and_history() {
        let mut e = engine(4, 2);
        let stats = e.tick();
        assert_eq!(stats.period, Period(0));
        assert_eq!(stats.group_loads.len(), 4);
        assert_eq!(e.history().len(), 1);
        assert!(e.history()[0].load_distance >= 0.0);

        let stats = e.tick();
        assert_eq!(stats.period, Period(1));
        assert_eq!(e.history().len(), 2);
    }

    #[test]
    fn migrations_update_routing_and_accounting() {
        let mut e = engine(4, 2);
        e.tick();
        let plan = ReconfigPlan {
            migrations: vec![Migration {
                group: KeyGroupId::new(0),
                to: NodeId::new(1),
            }],
            ..Default::default()
        };
        let report = e.apply(&plan);
        assert_eq!(report.migrations.len(), 1);
        assert!(report.failed.is_empty());
        assert_eq!(e.routing().node_of(KeyGroupId::new(0)), NodeId::new(1));
        assert!(
            report.migrations[0].cost > 0.0,
            "1 KiB of state has nonzero cost"
        );
        let rec = e.history().last().unwrap();
        assert_eq!(rec.migrations, 1);
        assert!(rec.migration_cost > 0.0);
        assert!(rec.migration_pause_secs > 0.0);
    }

    #[test]
    fn no_op_migrations_are_free() {
        let mut e = engine(4, 2);
        e.tick();
        let current = e.routing().node_of(KeyGroupId::new(0));
        let plan = ReconfigPlan {
            migrations: vec![Migration {
                group: KeyGroupId::new(0),
                to: current,
            }],
            ..Default::default()
        };
        let report = e.apply(&plan);
        assert!(report.migrations.is_empty() && report.failed.is_empty());
        assert_eq!(e.history().last().unwrap().migrations, 0);
    }

    #[test]
    fn migration_to_unknown_node_is_surfaced_not_dropped() {
        use crate::substrate::MigrationFailure;
        let mut e = engine(4, 2);
        e.tick();
        let before = e.routing().node_of(KeyGroupId::new(0));
        let plan = ReconfigPlan {
            migrations: vec![Migration {
                group: KeyGroupId::new(0),
                to: NodeId::new(99),
            }],
            ..Default::default()
        };
        let report = e.apply(&plan);
        assert!(report.migrations.is_empty());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(
            report.failed[0].reason,
            MigrationFailure::UnknownDestination
        );
        assert_eq!(e.routing().node_of(KeyGroupId::new(0)), before);
        assert_eq!(e.history().last().unwrap().migrations, 0);
    }

    #[test]
    fn sim_implements_the_reconfig_engine_trait() {
        fn drive(engine: &mut dyn ReconfigEngine) -> usize {
            engine.terminate_drained();
            let stats = engine.end_period();
            assert!(stats.total_tuples > 0.0);
            let _ = engine.view();
            let _ = engine.apply(&ReconfigPlan::noop());
            engine.history().len()
        }
        let mut e = engine(4, 2);
        assert_eq!(drive(&mut e), 1);
        assert_eq!(drive(&mut e), 2);
    }

    #[test]
    fn collocation_changes_system_load() {
        // Groups 0 and 1 communicate; putting them on one node must lower
        // the total system load (no ser/deser/network).
        let mut split = SimEngine::new(
            FixedWorkload { groups: 2 },
            Cluster::homogeneous(2),
            RoutingTable::from_assignment(vec![NodeId::new(0), NodeId::new(1)]),
            CostModel::default(),
        );
        let s_split = split.tick();

        let mut together = SimEngine::new(
            FixedWorkload { groups: 2 },
            Cluster::homogeneous(2),
            RoutingTable::from_assignment(vec![NodeId::new(0), NodeId::new(0)]),
            CostModel::default(),
        );
        let s_together = together.tick();

        assert!(s_together.total_system_load() < s_split.total_system_load());
        assert_eq!(s_together.collocation_factor(), 100.0);
        assert_eq!(s_split.collocation_factor(), 0.0);
    }

    #[test]
    fn scale_out_and_scale_in_lifecycle() {
        let mut e = engine(4, 2);
        e.tick();
        // Scale out.
        let plan = ReconfigPlan {
            add_nodes: vec![1.0],
            ..Default::default()
        };
        let _ = e.apply(&plan);
        assert_eq!(e.cluster().len(), 3);

        // Mark node 1 for removal; it still holds groups → not terminated.
        let plan = ReconfigPlan {
            mark_removal: vec![NodeId::new(1)],
            ..Default::default()
        };
        let _ = e.apply(&plan);
        assert!(e.cluster().is_killed(NodeId::new(1)));
        assert!(e.terminate_drained().is_empty());

        // Drain it, then it terminates.
        let groups = e.routing().groups_on(NodeId::new(1));
        let plan = ReconfigPlan {
            migrations: groups
                .into_iter()
                .map(|g| Migration {
                    group: g,
                    to: NodeId::new(0),
                })
                .collect(),
            ..Default::default()
        };
        e.tick();
        let _ = e.apply(&plan);
        assert_eq!(e.terminate_drained(), vec![NodeId::new(1)]);
        assert_eq!(e.cluster().len(), 2);
    }

    #[test]
    fn fault_and_recovery_rehome_groups_and_record_accounting() {
        let mut e = engine(4, 2);
        e.set_checkpoint_interval(1);
        e.tick();

        assert!(!e.inject_fault(NodeId::new(99)), "unknown node");
        assert!(e.inject_fault(NodeId::new(0)));
        assert!(!e.inject_fault(NodeId::new(0)), "double-kill rejected");

        let lost = e.routing().groups_on(NodeId::new(0));
        assert!(!lost.is_empty());
        let report = e.recover();
        assert_eq!(report.failed, vec![NodeId::new(0)]);
        assert_eq!(report.groups_restored, lost.len());
        assert_eq!(report.checkpoint_period, Some(0));
        assert!(
            report.recovery_secs > 0.0,
            "restoring 1 KiB states has modeled cost"
        );
        // Everything now lives on the survivor; the corpse is gone.
        assert_eq!(e.cluster().len(), 1);
        assert!(e.routing().groups_on(NodeId::new(0)).is_empty());
        assert_eq!(
            e.routing().groups_on(NodeId::new(1)).len(),
            e.routing().len()
        );
        // A second recover is a no-op.
        assert_eq!(e.recover(), crate::fault::RecoveryReport::default());
        // The accounting lands in the next period's record.
        e.tick();
        let rec = e.history().last().unwrap();
        assert_eq!(rec.failed_nodes, 1);
        assert_eq!(rec.groups_restored, lost.len());
        assert!(rec.recovery_secs > 0.0);
        assert_eq!(rec.num_nodes, 1);
    }

    #[test]
    fn recovery_placement_matches_the_shared_helper() {
        // 3 nodes, 6 groups round-robin; killing node 1 must land its
        // groups exactly where `recovery_placement` says.
        let mut e = engine(6, 3);
        e.tick();
        let lost = e.routing().groups_on(NodeId::new(1));
        let survivors = [NodeId::new(0), NodeId::new(2)];
        let expected = crate::fault::recovery_placement(&lost, &survivors);
        assert!(e.inject_fault(NodeId::new(1)));
        let _ = e.recover();
        for (kg, node) in expected {
            assert_eq!(e.routing().node_of(kg), node);
        }
    }

    #[test]
    fn deterministic_history() {
        let run = |seed_groups: u32| {
            let mut e = engine(seed_groups, 3);
            for _ in 0..5 {
                e.tick();
            }
            e.history()
                .iter()
                .map(|r| (r.load_distance, r.total_system_load))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(6), run(6));
    }
}
