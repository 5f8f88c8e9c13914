//! Differential tests: both reconfiguration modes against the
//! single-threaded reference interpreter in `tests/support`. Quiesce and
//! Epoch run the same migration executor — one epoch barrier wave,
//! fenced stop-the-world or bare — so neither can serve as the other's
//! oracle; instead each must reproduce the reference exactly: final
//! counter states bit-equal to a tuple-by-tuple run of the same input,
//! final routing equal to the scripted plans applied in turn, nothing
//! dropped — even when migrations land mid-batch with tuples still in
//! flight. The two modes must also agree on every per-period record
//! field their pause models do not touch. The property test randomizes
//! the knobs that bend the data plane around a barrier: batch size,
//! channel capacity, the periodic no-op barrier interval, and the
//! migration schedule itself.

mod support;

use albic::engine::operator::{Counting, Identity};
use albic::engine::{PeriodRecord, ReconfigMode, RoutingTable, RuntimeConfig, Topology};
use albic::job::{Job, Policy};
use albic::types::NodeId;
use proptest::prelude::*;
use support::{counts_of, final_counts, plan_of, run_reference, scripted_routing, NODES};

/// What one run ended in: the per-group counter states, the routing
/// assignment and the metric history, plus the job's topology and
/// initial routing for replaying the input through the reference.
struct Run {
    counts: Vec<u64>,
    routing: Vec<NodeId>,
    history: Vec<PeriodRecord>,
    topology: Topology,
    initial: RoutingTable,
}

/// One full run under `mode`: per period inject the deterministic
/// workload, apply that period's scripted migrations **without settling
/// first** (the plan lands while batches are still in flight), then close
/// the period.
fn run_mode(
    mode: ReconfigMode,
    batch: usize,
    capacity: usize,
    barrier_interval: usize,
    schedule: &[Vec<(u32, u32)>],
) -> Run {
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
    let topology = job.engine().topology().clone();
    let initial = job.engine().routing_snapshot();
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
    let run = Run {
        counts: final_counts(job.engine()),
        routing: job.engine().routing_snapshot().assignment().to_vec(),
        history: job.history().to_vec(),
        topology,
        initial,
    };
    job.shutdown();
    run
}

/// Assert one run against the reference interpreter fed the same input:
/// bit-equal final counters, the scripted final routing, no drops.
fn assert_matches_reference(mode: ReconfigMode, run: &Run, schedule: &[Vec<(u32, u32)>]) {
    let source = run.topology.operator_by_name("events").expect("events");
    let input: Vec<_> = (0..schedule.len() as u64)
        .map(|p| vec![(source, support::period_input(p).concat())])
        .collect();
    let reference = run_reference(&run.topology, &run.initial, &input);
    assert_eq!(
        run.counts,
        counts_of(&run.topology, &reference.states),
        "{mode:?}: final counter states diverge from the reference interpreter"
    );
    assert_eq!(
        run.routing,
        scripted_routing(&run.initial, schedule),
        "{mode:?}: final routing is not the scripted plans applied in turn"
    );
    for rec in &run.history {
        assert_eq!(rec.dropped_tuples, 0.0, "{mode:?}: period {}", rec.period);
    }
}

/// The per-period fields both modes must agree on. Wall-clock timings
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

/// Check one schedule under both modes with the given data-plane knobs:
/// each against the reference, and the two against each other.
fn assert_both_modes_match_reference(
    batch: usize,
    capacity: usize,
    barrier_interval: usize,
    schedule: &[Vec<(u32, u32)>],
) {
    let quiesce = run_mode(ReconfigMode::Quiesce, batch, capacity, 0, schedule);
    assert_matches_reference(ReconfigMode::Quiesce, &quiesce, schedule);
    let epoch = run_mode(
        ReconfigMode::Epoch,
        batch,
        capacity,
        barrier_interval,
        schedule,
    );
    assert_matches_reference(ReconfigMode::Epoch, &epoch, schedule);
    assert_eq!(
        comparable(&epoch.history),
        comparable(&quiesce.history),
        "per-period statistics diverge between the modes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both modes reproduce the reference interpreter over randomized
    /// batch sizes, channel capacities, periodic barrier intervals and
    /// migration schedules — including plans that land mid-batch with
    /// tuples in flight on every edge.
    #[test]
    fn both_modes_match_the_reference_interpreter(
        batch in 1usize..=48,
        capacity in 8usize..=128,
        barrier in prop_oneof![Just(0usize), 64usize..512],
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0u32..NODES as u32), 0..3),
            2..4,
        ),
    ) {
        assert_both_modes_match_reference(batch, capacity, barrier, &schedule);
    }
}

/// Deterministic pin of the core scenario: tiny batches, a small channel,
/// periodic no-op waves, and back-to-back multi-move periods — the plan
/// always lands mid-batch.
#[test]
fn mid_batch_migration_matches_the_reference_in_both_modes() {
    let schedule = vec![
        vec![(3, 1), (9, 2), (14, 0)],
        vec![(3, 2), (6, 1)],
        vec![(9, 0), (14, 2), (1, 1)],
    ];
    assert_both_modes_match_reference(4, 16, 64, &schedule);
}

/// Periodic no-op barrier waves under load change nothing: every tuple is
/// counted exactly once and routing never moves.
#[test]
fn noop_barrier_waves_under_load_are_exactly_once() {
    let schedule = vec![vec![], vec![], vec![]];
    let run = run_mode(ReconfigMode::Epoch, 8, 32, 48, &schedule);
    assert_matches_reference(ReconfigMode::Epoch, &run, &schedule);
    for rec in &run.history {
        assert_eq!(rec.migrations, 0);
    }
}
