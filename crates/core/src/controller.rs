//! The Algorithm-1 control loop, substrate-independent.
//!
//! Every statistics period the paper's adaptation loop does five things:
//!
//! 1. **recovery** — detect dead workers and restore their key groups
//!    from the latest checkpoint through the same migration machinery a
//!    plan uses (a no-op on healthy rounds);
//! 2. **housekeeping** — terminate nodes marked for removal whose key
//!    groups have all been drained (Algorithm 1, lines 1-3);
//! 3. **measure** — close the statistics period and snapshot
//!    [`PeriodStats`];
//! 4. **plan** — hand the statistics and a cluster view to a
//!    [`ReconfigPolicy`] (the adaptation framework, a balancer, ALBIC, or
//!    any baseline);
//! 5. **apply** — execute the returned plan on the engine.
//!
//! [`Controller`] owns exactly that loop over any
//! [`ReconfigEngine`] — the rate-based simulator and the threaded runtime
//! alike — so experiment harnesses, examples and tests no longer hand-roll
//! it. An optional observer sees every period's statistics before the
//! policy plans (this subsumes the old `run_policy_observed`: evaluators
//! like PoTC observe without migrating).

use albic_engine::substrate::{ApplyReport, PeriodRecord, ReconfigEngine};
use albic_engine::{Cluster, PeriodStats, ReconfigPlan, ReconfigPolicy, RecoveryReport};
use albic_types::NodeId;

/// Everything one adaptation round produced, for drivers that want to
/// inspect or print intermediate results.
#[derive(Debug)]
#[must_use = "inspect the report (it carries failed migrations); discard explicitly with `let _ =`"]
pub struct StepReport {
    /// What the recovery phase found and repaired — an empty report
    /// (`!recovery.recovered()`) on every healthy round.
    pub recovery: RecoveryReport,
    /// Nodes terminated by the housekeeping phase.
    pub terminated: Vec<NodeId>,
    /// The period's statistics snapshot (pre-plan).
    pub stats: PeriodStats,
    /// The cluster as it was when `stats` were measured — after
    /// housekeeping, *before* the plan was applied. External evaluators
    /// (e.g. PoTC) must score `stats` against this snapshot, not the
    /// post-apply cluster, or a scale-out round would pair pre-plan
    /// statistics with nodes that did not exist when they were measured.
    pub cluster: Cluster,
    /// The plan the policy produced.
    pub plan: ReconfigPlan,
    /// What applying the plan did.
    pub apply: ApplyReport,
}

/// Owns the Algorithm-1 adaptation loop over a [`ReconfigEngine`].
///
/// The engine is held by value; pass `&mut engine` (every `&mut E` is
/// itself a `ReconfigEngine`) to keep using the engine after the
/// controller is done, or move the engine in and take it back with
/// [`Controller::into_engine`].
pub struct Controller<'o, E: ReconfigEngine> {
    engine: E,
    observer: Option<Box<dyn FnMut(&PeriodStats, &Cluster) + 'o>>,
}

impl<'o, E: ReconfigEngine> Controller<'o, E> {
    /// A controller over `engine` with no observer.
    pub fn new(engine: E) -> Self {
        Controller {
            engine,
            observer: None,
        }
    }

    /// Attach an observer called with every period's statistics (and the
    /// cluster at measurement time) *before* the policy plans.
    pub fn with_observer(mut self, observer: impl FnMut(&PeriodStats, &Cluster) + 'o) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine — live drivers use this to
    /// inject tuples or quiesce the runtime between adaptation rounds.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Consume the controller, returning the engine.
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Metric history accumulated by the engine so far.
    pub fn history(&self) -> &[PeriodRecord] {
        self.engine.history()
    }

    /// One adaptation round: recover → settle → housekeeping → measure →
    /// observe → plan → apply. The recovery phase detects dead workers
    /// and restores their key groups from the latest checkpoint *before*
    /// anything quiesces or measures (a corpse can neither acknowledge a
    /// barrier nor report statistics); on a healthy round it is a cheap
    /// no-op. The settle phase is a no-op on the simulator; on the
    /// threaded runtime it quiesces in-flight tuples so the period's
    /// statistics cover everything injected before the step. The policy
    /// is never told about the failure — it sees the post-recovery
    /// placement as ordinary statistics over a smaller cluster, and its
    /// plan runs through the same executor that recovery used.
    pub fn step(&mut self, policy: &mut dyn ReconfigPolicy) -> StepReport {
        let recovery = self.engine.recover();
        self.engine.settle();
        let terminated = self.engine.terminate_drained();
        let stats = self.engine.end_period();
        if let Some(observer) = self.observer.as_mut() {
            observer(&stats, self.engine.view().cluster);
        }
        let cluster = self.engine.view().cluster.clone();
        let plan = policy.plan(&stats, self.engine.view());
        let apply = self.engine.apply(&plan);
        StepReport {
            recovery,
            terminated,
            stats,
            cluster,
            plan,
            apply,
        }
    }

    /// Run `periods` adaptation rounds and return the engine's metric
    /// history.
    pub fn run(&mut self, policy: &mut dyn ReconfigPolicy, periods: usize) -> Vec<PeriodRecord> {
        for _ in 0..periods {
            let _ = self.step(policy);
        }
        self.engine.history().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::MilpBalancer;
    use crate::framework::AdaptationFramework;
    use albic_engine::reconfig::NoopPolicy;
    use albic_engine::sim::{SimEngine, WorkloadModel, WorkloadSnapshot};
    use albic_engine::{Cluster, CostModel, RoutingTable};
    use albic_milp::MigrationBudget;
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
    fn run_accumulates_history_and_borrowed_engine_survives() {
        let mut engine = SimEngine::with_round_robin(
            Flat {
                groups: 8,
                tuples_each: 500.0,
            },
            Cluster::homogeneous(2),
            CostModel::default(),
        );
        let history = Controller::new(&mut engine).run(&mut NoopPolicy, 3);
        assert_eq!(history.len(), 3);
        // The engine is usable after the controller released the borrow.
        assert_eq!(engine.history().len(), 3);
    }

    #[test]
    fn step_reports_the_plan_and_its_execution() {
        let cluster = Cluster::homogeneous(2);
        let routing = RoutingTable::all_on(8, cluster.nodes()[0].id);
        let engine = SimEngine::new(
            Flat {
                groups: 8,
                tuples_each: 1000.0,
            },
            cluster,
            routing,
            CostModel::default(),
        );
        let mut policy =
            AdaptationFramework::balancing_only(MilpBalancer::new(MigrationBudget::Unlimited));
        let mut ctl = Controller::new(engine);
        let report = ctl.step(&mut policy);
        assert!(report.terminated.is_empty());
        assert!(report.stats.total_tuples > 0.0);
        assert!(!report.plan.migrations.is_empty(), "skew must be fixed");
        assert_eq!(report.apply.migrations.len(), report.plan.migrations.len());
        assert!(report.apply.failed.is_empty());
        let engine = ctl.into_engine();
        assert_eq!(engine.history().len(), 1);
    }

    #[test]
    fn observer_sees_stats_before_the_policy_plans() {
        let mut engine = SimEngine::with_round_robin(
            Flat {
                groups: 4,
                tuples_each: 100.0,
            },
            Cluster::homogeneous(2),
            CostModel::default(),
        );
        let mut seen = Vec::new();
        {
            let mut ctl = Controller::new(&mut engine)
                .with_observer(|stats, cluster| seen.push((stats.period, cluster.len())));
            ctl.run(&mut NoopPolicy, 2);
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, 2);
    }
}
