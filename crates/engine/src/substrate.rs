//! The substrate-independent reconfiguration surface.
//!
//! The paper's Algorithm 1 is a control loop over an *executing dataflow*:
//! every statistics period it terminates drained nodes, measures, asks a
//! policy for a plan, and applies that plan. Nothing in the loop depends on
//! *how* the dataflow executes — the rate-based [`crate::sim::SimEngine`]
//! and the threaded [`crate::runtime::Runtime`] both expose the period
//! lifecycle through [`ReconfigEngine`], so the same controller (see
//! `albic_core::controller`) and the same policies drive either substrate.
//! Policies cannot tell which one they run on; the figures run on the
//! simulator for speed and the live examples run on real threads with real
//! state shipping.

use albic_types::{KeyGroupId, NodeId};
use serde::{Deserialize, Serialize};

use crate::fault::RecoveryReport;
use crate::migration::MigrationReport;
use crate::reconfig::{ClusterView, ReconfigPlan};
use crate::stats::PeriodStats;

/// Per-period metric record, the raw material of the experiment figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeriodRecord {
    /// Period index.
    pub period: u64,
    /// Load distance (max alive-node deviation from the mean), percent.
    pub load_distance: f64,
    /// Mean alive-node load, percent.
    pub mean_load: f64,
    /// Total bottleneck-resource load over all nodes (load-index numerator).
    pub total_system_load: f64,
    /// Collocation factor, percent of inter-group traffic kept local.
    pub collocation_factor: f64,
    /// Number of key-group migrations applied after this period.
    pub migrations: usize,
    /// Total migration cost applied after this period.
    pub migration_cost: f64,
    /// Total pause seconds incurred by those migrations.
    pub migration_pause_secs: f64,
    /// Total serialized state bytes those migrations shipped.
    pub migration_state_bytes: usize,
    /// Total bytes those migrations' state blobs occupied on the wire
    /// (equals `migration_state_bytes` unless the networked transport
    /// compressed them).
    pub migration_wire_bytes: usize,
    /// Number of nodes present (alive + marked).
    pub num_nodes: usize,
    /// Number of nodes marked for removal.
    pub marked_nodes: usize,
    /// Tuples whose destination worker was unreachable this period —
    /// surfaced drops, always 0 on the simulator and in healthy runs.
    pub dropped_tuples: f64,
    /// Workers that crashed and were recovered before this period closed.
    pub failed_nodes: usize,
    /// Key groups restored from the latest checkpoint onto survivors by
    /// those recoveries.
    pub groups_restored: usize,
    /// Tuples replayed from the inject-side log during recovery (0 on the
    /// simulator, which models recovery at the rate level).
    pub tuples_replayed: f64,
    /// Seconds spent recovering — measured on the runtime, modeled via
    /// the migration cost model on the simulator.
    pub recovery_secs: f64,
    /// Serialized bytes captured by a checkpoint at this period's
    /// boundary — 0 on non-checkpoint periods. In incremental mode this
    /// is O(changed state); in full mode it is the whole state image.
    pub checkpoint_bytes: u64,
    /// Un-compacted bytes sitting in the checkpoint store's delta layers
    /// after this period's boundary (always 0 in full mode).
    pub delta_bytes: u64,
    /// Key groups whose checkpoint image lives on the spill tier (cold
    /// state on disk) after this period's boundary.
    pub spilled_groups: usize,
    /// Spill records that failed this period: a worker read that came
    /// up short or failed its header check (the group continued from
    /// fresh state), a store write that kept its group resident, or a
    /// segment rewrite that could not complete. Always 0 on the
    /// simulator and in healthy runs.
    pub spill_failures: u64,
}

/// What an engine runs around the migrations of a plan.
///
/// Both modes execute migrations with the same barrier-aligned epoch
/// wave: a numbered barrier reaches every worker, each drains its
/// pre-barrier traffic per inbound edge, and routing flips plus state
/// extract/install happen edge-locally when the barrier passes. The
/// modes differ only in what else pauses while state moves, and so in
/// the pause a period is charged; final states, routing and per-period
/// statistics are identical (`tests/epoch.rs` checks both against a
/// reference interpreter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigMode {
    /// Stop-the-world: the wave runs inside the injection fence, with the
    /// whole data plane settled before and after it. Moves are charged
    /// one after another (the sum of their pauses).
    #[default]
    Quiesce,
    /// The bare wave: only the moving edges pause, unrelated operators
    /// and external producers keep streaming, and the wave is charged its
    /// slowest move.
    Epoch,
}

impl ReconfigMode {
    /// The pause seconds an executed plan charges its period:
    /// stop-the-world serializes the moves (the sum of their pauses); a
    /// bare wave pauses its edges concurrently (the slowest move). The
    /// one place both substrates take this figure from, so simulated
    /// and threaded histories cannot drift apart.
    pub(crate) fn charged_pause_secs(self, report: &ApplyReport) -> f64 {
        match self {
            ReconfigMode::Quiesce => report.total_pause_secs(),
            ReconfigMode::Epoch => report
                .migrations
                .iter()
                .map(|m| m.pause_secs)
                .fold(0.0, f64::max),
        }
    }
}

/// Why an individual migration could not be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationFailure {
    /// The destination node is not part of the cluster.
    UnknownDestination,
    /// The source worker is gone (its channel is closed).
    SourceUnavailable,
    /// The destination worker disappeared before the state could be
    /// shipped; the state stayed on the source and routing was restored.
    DestinationUnavailable,
    /// A worker died mid-protocol without reporting which side failed.
    /// Routing is restored to the source as the best guess, but the
    /// state's location is unknown — this only happens if a worker
    /// thread panics, which the engine treats as a bug, not a condition
    /// to recover from.
    ProtocolAborted,
}

/// One migration the engine could not carry out, with the reason. The
/// key group keeps running on `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailedMigration {
    /// The key group that was supposed to move.
    pub group: KeyGroupId,
    /// Where it was (and still is) hosted.
    pub from: NodeId,
    /// Where it was supposed to go.
    pub to: NodeId,
    /// Why the move did not happen.
    pub reason: MigrationFailure,
}

/// Outcome of executing one [`ReconfigPlan`].
///
/// Marked `#[must_use]`: dropping a report silently discards failed
/// migrations, which the engines go out of their way to surface.
#[derive(Debug, Clone, Default)]
#[must_use = "inspect the report: failed migrations are surfaced here, never logged"]
pub struct ApplyReport {
    /// Successfully executed migrations, with cost accounting.
    pub migrations: Vec<MigrationReport>,
    /// Migrations that could not be executed (never silently dropped).
    pub failed: Vec<FailedMigration>,
    /// Ids of the nodes acquired for the plan's `add_nodes` capacities.
    pub added: Vec<NodeId>,
    /// Nodes newly marked for removal.
    pub marked: Vec<NodeId>,
}

impl ApplyReport {
    /// Total serialized state shipped by the executed migrations.
    pub fn total_state_bytes(&self) -> usize {
        self.migrations.iter().map(|r| r.state_bytes).sum()
    }

    /// Total bytes those states occupied on the wire (smaller than
    /// [`ApplyReport::total_state_bytes`] when the transport compressed
    /// them).
    pub fn total_wire_bytes(&self) -> usize {
        self.migrations.iter().map(|r| r.wire_bytes).sum()
    }

    /// Total modeled migration cost.
    pub fn total_cost(&self) -> f64 {
        self.migrations.iter().map(|r| r.cost).sum()
    }

    /// Total modeled pause seconds.
    pub fn total_pause_secs(&self) -> f64 {
        self.migrations.iter().map(|r| r.pause_secs).sum()
    }
}

/// The period lifecycle every reconfigurable substrate exposes.
///
/// One adaptation round (Algorithm 1) against any implementor:
///
/// 1. [`terminate_drained`](ReconfigEngine::terminate_drained) —
///    housekeeping: nodes marked for removal whose key groups are gone are
///    released (the simulator drops them; the runtime joins their worker
///    threads);
/// 2. [`end_period`](ReconfigEngine::end_period) — close the statistics
///    period and obtain the [`PeriodStats`] snapshot (the simulator draws
///    its workload model; the runtime flushes windows and merges worker
///    collectors);
/// 3. the policy plans against the stats and the
///    [`view`](ReconfigEngine::view);
/// 4. [`apply`](ReconfigEngine::apply) — execute the plan: acquire nodes,
///    migrate key groups (modeled vs. the real redirect → buffer → ship →
///    replay protocol), mark nodes for removal.
///
/// Implementations append one [`PeriodRecord`] per `end_period` call and
/// fold the applied plan's accounting into the latest record, so
/// [`history`](ReconfigEngine::history) has the same schema on every
/// substrate. One semantic difference is inherent: the simulator can
/// *re-measure* the closed period under the post-plan placement (its
/// records show post-migration load metrics, which is what the paper's
/// figures plot), while the runtime can only record what was actually
/// measured — the effect of a plan shows up in the *next* period's
/// record. Decision-relevant signals ([`PeriodStats`]) are identical on
/// both substrates; `tests/substrate_equivalence.rs` pins that.
pub trait ReconfigEngine {
    /// Settle all in-flight work so a following
    /// [`end_period`](ReconfigEngine::end_period) measures everything
    /// submitted so far. The simulator has no in-flight work (the default
    /// no-op); the threaded runtime runs counting barrier rounds until
    /// its workers' activity counters confirm the data plane quiet.
    /// Controllers call this at the top of every adaptation round, so
    /// drivers never hand-tune quiesce depths.
    fn settle(&mut self) {}

    /// Release every marked node whose key groups have all been drained
    /// (Algorithm 1, lines 1-3). Returns the terminated node ids.
    fn terminate_drained(&mut self) -> Vec<NodeId>;

    /// Close the current statistics period and return its snapshot.
    fn end_period(&mut self) -> PeriodStats;

    /// Read-only cluster + cost-model view handed to policies.
    fn view(&self) -> ClusterView<'_>;

    /// Execute a reconfiguration plan in the engine's own
    /// [`reconfig_mode`](ReconfigEngine::reconfig_mode) — the one entry
    /// point controllers call.
    fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport;

    /// The mode [`apply`](ReconfigEngine::apply) executes plans in. The
    /// default (an engine without a barrier-aligned path) is
    /// [`ReconfigMode::Quiesce`].
    fn reconfig_mode(&self) -> ReconfigMode {
        ReconfigMode::Quiesce
    }

    /// Force the barrier-aligned path: execute a plan as in
    /// [`ReconfigMode::Epoch`] whatever the engine's configured mode —
    /// only the moving edges pause while unrelated operators keep
    /// streaming. Engines without a barrier-aligned path fall back to
    /// [`apply`](ReconfigEngine::apply).
    fn apply_epoch(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        self.apply(plan)
    }

    /// Metric history, one record per completed period.
    fn history(&self) -> &[PeriodRecord];

    /// Abruptly fail a node — the deterministic fault-injection hook.
    /// On the threaded runtime the worker thread dies at its next message
    /// boundary, dropping all in-memory key-group state; on the simulator
    /// the node is marked failed and its groups strand until recovery.
    /// Returns `false` if the node is unknown or already dead. The
    /// default (an engine without a failure model) injects nothing.
    fn inject_fault(&mut self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Sever a node's transport *connection* without failing the node —
    /// the scripted network-fault hook. The networked runtime cuts the
    /// worker's socket with `shutdown(2)` and the session is expected to
    /// `RESUME`; engines without a connection to cut (the simulator,
    /// in-process workers) return `false` and nothing happens.
    fn drop_socket(&mut self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Detect dead workers and recover their key groups: re-home them
    /// onto survivors ([`crate::fault::recovery_placement`]), restore
    /// state from the latest period-aligned checkpoint through the same
    /// install path a migration uses, and replay the post-checkpoint
    /// delta from the inject-side log. Controllers call this at the top
    /// of every adaptation round; with no dead worker it is a cheap
    /// no-op. The default (an engine without a failure model) reports
    /// nothing.
    fn recover(&mut self) -> RecoveryReport {
        RecoveryReport::default()
    }
}

impl<E: ReconfigEngine + ?Sized> ReconfigEngine for &mut E {
    fn settle(&mut self) {
        (**self).settle()
    }
    fn terminate_drained(&mut self) -> Vec<NodeId> {
        (**self).terminate_drained()
    }
    fn end_period(&mut self) -> PeriodStats {
        (**self).end_period()
    }
    fn view(&self) -> ClusterView<'_> {
        (**self).view()
    }
    fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        (**self).apply(plan)
    }
    fn reconfig_mode(&self) -> ReconfigMode {
        (**self).reconfig_mode()
    }
    fn apply_epoch(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        (**self).apply_epoch(plan)
    }
    fn history(&self) -> &[PeriodRecord] {
        (**self).history()
    }
    fn inject_fault(&mut self, node: NodeId) -> bool {
        (**self).inject_fault(node)
    }
    fn drop_socket(&mut self, node: NodeId) -> bool {
        (**self).drop_socket(node)
    }
    fn recover(&mut self) -> RecoveryReport {
        (**self).recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn apply_report_totals() {
        let cm = CostModel {
            alpha: 0.5,
            pause_per_cost: 2.0,
            ..Default::default()
        };
        let report = ApplyReport {
            migrations: vec![
                MigrationReport::from_cost_model(
                    KeyGroupId::new(0),
                    NodeId::new(0),
                    NodeId::new(1),
                    100,
                    &cm,
                ),
                MigrationReport::from_cost_model(
                    KeyGroupId::new(1),
                    NodeId::new(1),
                    NodeId::new(0),
                    60,
                    &cm,
                ),
            ],
            failed: vec![FailedMigration {
                group: KeyGroupId::new(2),
                from: NodeId::new(0),
                to: NodeId::new(9),
                reason: MigrationFailure::UnknownDestination,
            }],
            added: vec![],
            marked: vec![],
        };
        assert_eq!(report.total_state_bytes(), 160);
        assert!((report.total_cost() - 80.0).abs() < 1e-12);
        assert!((report.total_pause_secs() - 160.0).abs() < 1e-12);
        assert_eq!(
            report.failed[0].reason,
            MigrationFailure::UnknownDestination
        );
    }
}
