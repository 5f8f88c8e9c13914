//! Differential tests: epoch-aligned reconfiguration against the quiesced
//! oracle. The two executors are *observationally equivalent* — same final
//! counter states (bit-equal), same final routing, same per-period
//! statistics — even when migrations land mid-batch with tuples still in
//! flight. The quiesce path stops the world and is trivially correct; the
//! epoch path never stops unrelated operators, so any divergence here is a
//! barrier-alignment bug. The property test randomizes the knobs that bend
//! the data plane around a barrier: batch size, channel capacity, the
//! periodic no-op barrier interval, and the migration schedule itself.

mod support;

use albic::engine::operator::{Counting, Identity};
use albic::engine::{PeriodRecord, ReconfigMode, RuntimeConfig};
use albic::job::{Job, Policy};
use albic::types::NodeId;
use proptest::prelude::*;
use support::{final_counts, plan_of, total_tuples, NODES};

/// One full run under `mode`: per period inject the deterministic
/// workload, apply that period's scripted migrations **without settling
/// first** (the plan lands while batches are still in flight), then close
/// the period. Returns the final per-group counter states, the final
/// routing assignment, and the metric history.
fn run_mode(
    mode: ReconfigMode,
    batch: usize,
    capacity: usize,
    barrier_interval: usize,
    schedule: &[Vec<(u32, u32)>],
) -> (Vec<u64>, Vec<NodeId>, Vec<PeriodRecord>) {
    let mut job = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(NODES)
        .checkpoint_interval(1)
        .runtime_config(RuntimeConfig {
            batch_size: batch,
            channel_capacity: capacity,
            barrier_interval,
            ..RuntimeConfig::default()
        })
        .reconfig_mode(mode)
        .policy(Policy::noop())
        .build_threaded()
        .expect("valid job spec");
    for (p, moves) in schedule.iter().enumerate() {
        for tuples in support::period_input(p as u64) {
            job.inject("events", tuples);
        }
        // Mid-batch landing: no settle between inject and apply, so the
        // wave overtakes tuples still queued on the data plane.
        let plan = plan_of(&job.engine().routing_snapshot(), moves);
        let report = job.apply(&plan);
        assert!(
            report.failed.is_empty(),
            "period {p}: no kills, every move must succeed: {:?}",
            report.failed
        );
        assert_eq!(report.migrations.len(), plan.migrations.len());
        let step = job.step();
        assert!(step.apply.failed.is_empty());
    }
    job.settle();
    let counts = final_counts(job.engine());
    let assignment = job.engine().routing_snapshot().assignment().to_vec();
    let history = job.history().to_vec();
    job.shutdown();
    (counts, assignment, history)
}

/// The per-period fields both executors must agree on. Wall-clock timings
/// (`migration_pause_secs`, `recovery_secs`) are excluded — the pause
/// *accounting model* differs by design (edge-local max vs. sum) and both
/// are machine-dependent.
#[allow(clippy::type_complexity)]
fn comparable(history: &[PeriodRecord]) -> Vec<(u64, usize, f64, usize, usize, f64, usize)> {
    history
        .iter()
        .map(|r| {
            (
                r.period,
                r.migrations,
                r.migration_cost,
                r.num_nodes,
                r.marked_nodes,
                r.dropped_tuples,
                r.failed_nodes,
            )
        })
        .collect()
}

/// Assert full observational equivalence of one schedule under the two
/// executors with the given data-plane knobs.
fn assert_epoch_matches_oracle(
    batch: usize,
    capacity: usize,
    barrier_interval: usize,
    schedule: &[Vec<(u32, u32)>],
) {
    let (oracle_counts, oracle_routing, oracle_history) =
        run_mode(ReconfigMode::Quiesce, batch, capacity, 0, schedule);
    let (counts, routing, history) = run_mode(
        ReconfigMode::Epoch,
        batch,
        capacity,
        barrier_interval,
        schedule,
    );

    assert_eq!(
        counts, oracle_counts,
        "final counter states diverge from the quiesced oracle"
    );
    assert_eq!(routing, oracle_routing, "final routing diverges");
    assert_eq!(
        comparable(&history),
        comparable(&oracle_history),
        "per-period statistics diverge"
    );
    // Arithmetic ground truth: exactly-once end to end.
    assert_eq!(
        counts.iter().sum::<u64>(),
        total_tuples(schedule.len() as u64)
    );
    for rec in &history {
        assert_eq!(rec.dropped_tuples, 0.0, "period {}", rec.period);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Epoch-aligned apply is observationally equivalent to the quiesced
    /// oracle over randomized batch sizes, channel capacities, periodic
    /// barrier intervals and migration schedules — including plans that
    /// land mid-batch with tuples in flight on every edge.
    #[test]
    fn epoch_reconfiguration_matches_the_quiesced_oracle(
        batch in 1usize..=48,
        capacity in 8usize..=128,
        barrier in prop_oneof![Just(0usize), 64usize..512],
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0u32..NODES as u32), 0..3),
            2..4,
        ),
    ) {
        assert_epoch_matches_oracle(batch, capacity, barrier, &schedule);
    }
}

/// Deterministic pin of the core scenario: tiny batches, a small channel,
/// periodic no-op waves, and back-to-back multi-move periods — the plan
/// always lands mid-batch.
#[test]
fn mid_batch_migration_epoch_matches_quiesce_oracle() {
    let schedule = vec![
        vec![(3, 1), (9, 2), (14, 0)],
        vec![(3, 2), (6, 1)],
        vec![(9, 0), (14, 2), (1, 1)],
    ];
    assert_epoch_matches_oracle(4, 16, 64, &schedule);
}

/// Periodic no-op barrier waves under load change nothing: every tuple is
/// counted exactly once and routing never moves.
#[test]
fn noop_barrier_waves_under_load_are_exactly_once() {
    let schedule = vec![vec![], vec![], vec![]];
    let (counts, routing, history) = run_mode(ReconfigMode::Epoch, 8, 32, 48, &schedule);
    assert_eq!(
        counts.iter().sum::<u64>(),
        total_tuples(schedule.len() as u64)
    );
    let (oracle_counts, oracle_routing, _) = run_mode(ReconfigMode::Quiesce, 8, 32, 0, &schedule);
    assert_eq!(counts, oracle_counts);
    assert_eq!(routing, oracle_routing);
    for rec in &history {
        assert_eq!(rec.migrations, 0);
        assert_eq!(rec.dropped_tuples, 0.0);
    }
}
