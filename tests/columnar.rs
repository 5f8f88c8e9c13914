//! Differential tests: the threaded runtime's chunk data plane against
//! the single-threaded reference interpreter (`tests/support`). The
//! reference runs each operator tuple by tuple with no channels, no
//! batching and no migration, so it is trivially correct; the runtime
//! re-buckets whole columns per virtual call, replays migration buffers
//! as chunks and routes period-end window emissions through the same
//! chunk path — any divergence here is a vectorization or migration bug.
//! Pinned: every group's final serialized state equals the reference's
//! (even when migrations land mid-chunk with tuples still in flight),
//! the final routing equals the scripted plans applied to the initial
//! routing, nothing is dropped, and for migration-free schedules every
//! per-period statistics signal is bit-identical to the reference's. The
//! property tests randomize the knobs that bend the plane around a batch
//! boundary: batch size, channel capacity, and the migration schedule
//! itself.

mod support;

use albic::engine::chunk::ChunkSorter;
use albic::engine::operator::{Counting, Identity};
use albic::engine::tuple::{Tuple, Value};
use albic::engine::{
    PeriodStats, ReconfigEngine, ReconfigMode, Runtime, RuntimeConfig, StreamChunk,
};
use albic::job::{Job, Policy};
use albic::types::NodeId;
use proptest::prelude::*;
use support::{plan_of, run_reference, scripted_routing, WindowCount, NODES};

/// What one runtime run leaves behind: final per-group states, final
/// routing, and the statistics snapshot of every period.
struct RunOutcome {
    states: Vec<Vec<u8>>,
    routing: Vec<NodeId>,
    stats: Vec<PeriodStats>,
}

/// Inject one period's scripted input: one `inject` call per key, or —
/// with `calls` non-empty — the period's tuples in the same order, in
/// calls of `calls[0]`, `calls[1]`, ... tuples (cycling). The second is a
/// trickle: every worker dequeues short chunks, which it coalesces.
fn inject_period(job: &mut Job<Runtime>, period: u64, calls: &[usize]) {
    if calls.is_empty() {
        for tuples in support::period_input(period) {
            job.inject("events", tuples);
        }
        return;
    }
    let mut tuples = support::period_input(period).concat().into_iter();
    for &n in calls.iter().cycle() {
        let call: Vec<Tuple> = tuples.by_ref().take(n).collect();
        if call.is_empty() {
            break;
        }
        job.inject("events", call);
    }
}

/// One full run of `job`: per period inject the scripted workload (see
/// [`inject_period`]), apply that period's scripted migrations **without
/// settling first** (the plan lands with chunks still in flight), then
/// close the period.
fn run_job(mut job: Job<Runtime>, schedule: &[Vec<(u32, u32)>], calls: &[usize]) -> RunOutcome {
    let initial = job.engine().routing_snapshot();
    let mut stats = Vec::new();
    for (p, moves) in schedule.iter().enumerate() {
        inject_period(&mut job, p as u64, calls);
        // Mid-batch landing: no settle between inject and apply, so the
        // reconfiguration overtakes tuples still queued on the data plane.
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
        stats.push(step.stats);
    }
    job.settle();
    let outcome = RunOutcome {
        states: support::final_states(job.engine()),
        routing: job.engine().routing_snapshot().assignment().to_vec(),
        stats,
    };
    assert_eq!(
        outcome.routing,
        scripted_routing(&initial, schedule),
        "final routing is not the scripted plans applied to the initial routing"
    );
    job.shutdown();
    outcome
}

/// The `events -> count` differential job.
fn counting_job(
    mode: ReconfigMode,
    batch: usize,
    capacity: usize,
    barrier_interval: usize,
) -> Job<Runtime> {
    Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(NODES)
        .runtime_config(RuntimeConfig {
            batch_size: batch,
            channel_capacity: capacity,
            barrier_interval,
            ..RuntimeConfig::default()
        })
        .reconfig_mode(mode)
        .policy(Policy::noop())
        .build_threaded()
        .expect("valid job spec")
}

/// Run `job` over `schedule`, injecting in `calls` (see
/// [`inject_period`]), and assert it against the reference interpreter
/// fed the same input under the job's initial routing.
fn assert_matches_reference(
    job: Job<Runtime>,
    schedule: &[Vec<(u32, u32)>],
    calls: &[usize],
) -> RunOutcome {
    let topology = job.engine().topology().clone();
    let initial = job.engine().routing_snapshot();
    let cluster = job.engine().view().cluster.clone();
    let cost = job.engine().view().cost.clone();
    let source = topology.operator_by_name("events").expect("events source");
    let input: Vec<_> = (0..schedule.len() as u64)
        .map(|p| vec![(source, support::period_input(p).concat())])
        .collect();
    let reference = run_reference(&topology, &initial, &input);
    let run = run_job(job, schedule, calls);
    assert_eq!(
        run.states, reference.states,
        "final per-group states diverge from the reference interpreter"
    );
    for (p, stats) in run.stats.iter().enumerate() {
        assert_eq!(stats.dropped_tuples, 0.0, "period {p}");
    }
    if schedule.iter().all(|moves| moves.is_empty()) {
        // Migration-free: every statistics signal is a function of exact
        // integer counters, so it must match bit for bit.
        for (p, (stats, counters)) in run.stats.iter().zip(&reference.periods).enumerate() {
            let expected = PeriodStats::compute(
                stats.period,
                counters,
                initial.assignment().to_vec(),
                &cluster,
                &cost,
            );
            assert_stats_match(p, stats, &expected);
        }
    }
    run
}

/// Every policy-visible load and flow signal of one period, compared
/// exactly (drops are checked for every schedule by the caller).
fn assert_stats_match(p: usize, actual: &PeriodStats, expected: &PeriodStats) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&actual.group_loads),
        bits(&expected.group_loads),
        "period {p}: per-group loads"
    );
    assert_eq!(
        bits(&actual.group_state_bytes),
        bits(&expected.group_state_bytes),
        "period {p}: per-group state bytes"
    );
    assert_eq!(
        bits(&actual.out_total),
        bits(&expected.out_total),
        "period {p}: per-group output"
    );
    assert_eq!(
        actual.out_matrix, expected.out_matrix,
        "period {p}: out matrix"
    );
    assert_eq!(
        actual.node_loads, expected.node_loads,
        "period {p}: node loads"
    );
    assert_eq!(
        actual.bottleneck, expected.bottleneck,
        "period {p}: bottleneck"
    );
    assert_eq!(
        actual.total_tuples, expected.total_tuples,
        "period {p}: total tuples"
    );
    assert_eq!(
        actual.cross_tuples, expected.cross_tuples,
        "period {p}: crossing tuples"
    );
    assert_eq!(
        actual.comm_tuples, expected.comm_tuples,
        "period {p}: inter-group tuples"
    );
}

/// One counting schedule against the reference, plus the arithmetic
/// ground truth: every injected tuple counted exactly once.
fn assert_counting_matches_reference(
    mode: ReconfigMode,
    batch: usize,
    capacity: usize,
    barrier: usize,
    schedule: &[Vec<(u32, u32)>],
    calls: &[usize],
) {
    let job = counting_job(mode, batch, capacity, barrier);
    let topology = job.engine().topology().clone();
    let run = assert_matches_reference(job, schedule, calls);
    let counted: u64 = support::counts_of(&topology, &run.states).iter().sum();
    assert_eq!(counted, support::total_tuples(schedule.len() as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quiesced reconfiguration: final states equal the reference's over
    /// randomized batch sizes, channel capacities, and mid-stream
    /// migration schedules.
    #[test]
    fn columnar_plane_matches_row_oracle_under_quiesce(
        batch in 1usize..=48,
        capacity in 8usize..=128,
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0u32..NODES as u32), 0..3),
            2..4,
        ),
    ) {
        assert_counting_matches_reference(ReconfigMode::Quiesce, batch, capacity, 0, &schedule, &[]);
    }

    /// Steady state (no plans in flight): *every* per-period statistics
    /// signal — per-group loads, node loads, total, crossing and
    /// inter-group tuples — is bit-identical to the reference's, over
    /// randomized batch sizes and channel capacities.
    #[test]
    fn steady_state_statistics_are_bit_identical(
        batch in 1usize..=48,
        capacity in 8usize..=128,
        periods in 2usize..=4,
    ) {
        let schedule = vec![vec![]; periods];
        assert_counting_matches_reference(ReconfigMode::Quiesce, batch, capacity, 0, &schedule, &[]);
    }

    /// Epoch-aligned reconfiguration: same final states as the reference,
    /// the scripted routing, and zero drops. (Per-period *load* stats are
    /// not compared under migration: epoch mode never stops unrelated
    /// edges, so the crossing classification of in-flight tuples is
    /// timing-dependent — the steady-state property above pins the
    /// stats.)
    #[test]
    fn columnar_plane_matches_row_oracle_under_epoch(
        batch in 1usize..=48,
        capacity in 8usize..=128,
        barrier in prop_oneof![Just(0usize), 64usize..512],
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0u32..NODES as u32), 0..3),
            2..4,
        ),
    ) {
        assert_counting_matches_reference(ReconfigMode::Epoch, batch, capacity, barrier, &schedule, &[]);
    }

    /// Trickle injection under epoch reconfiguration: each period's input
    /// arrives in calls of 1–5 tuples, so workers dequeue runs of short
    /// chunks and coalesce them — across the periodic no-op barrier waves
    /// and the mid-stream migration waves, whose barrier messages must
    /// never be overtaken by the data queued behind them. Final states
    /// equal the reference's, routing is the scripted one, nothing is
    /// dropped.
    #[test]
    fn trickle_injection_matches_reference_under_epoch(
        batch in 1usize..=48,
        capacity in 8usize..=128,
        barrier in 16usize..256,
        calls in proptest::collection::vec(1usize..=5, 1..6),
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0u32..NODES as u32), 1..3),
            2..4,
        ),
    ) {
        assert_counting_matches_reference(
            ReconfigMode::Epoch, batch, capacity, barrier, &schedule, &calls,
        );
    }

    /// The chunk codec round-trips arbitrary mixed-variant chunks
    /// bit-exactly, including the visibility bitmap (hidden rows survive
    /// the trip still hidden).
    #[test]
    fn chunk_codec_roundtrips_arbitrary_chunks(
        rows in proptest::collection::vec(
            (0u64..64, 0u64..1000, 0usize..5, any::<i64>(), -1e6f64..1e6, "\\PC{0,12}"),
            0..48,
        ),
        hide in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        use albic::engine::codec::{Reader, Writer};
        let mut chunk = StreamChunk::new();
        for &(key, ts, variant, i, f, ref s) in &rows {
            let value = match variant {
                0 => Value::Null,
                1 => Value::Int(i),
                2 => Value::Float(f),
                3 => Value::Str(s.clone()),
                _ => Value::List(vec![Value::Int(i), Value::Str(s.clone())]),
            };
            chunk.push(key, value, ts);
        }
        for (i, &h) in hide.iter().enumerate() {
            if h && i < chunk.len() {
                chunk.hide(i);
            }
        }
        let mut w = Writer::new();
        chunk.encode(&mut w);
        let bytes = w.into_bytes();
        let back = StreamChunk::decode(&mut Reader::new(&bytes)).expect("decode");
        prop_assert_eq!(&back, &chunk);
        // And the visible-tuple view agrees (masked rows stay masked).
        prop_assert_eq!(back.to_tuples(), chunk.to_tuples());
        prop_assert_eq!(back.visible_len(), chunk.visible_len());
    }

    /// Stable counting sort: bucketing any chunk by group preserves
    /// per-group row order and loses nothing.
    #[test]
    fn sorter_is_stable_and_lossless(
        rows in proptest::collection::vec((0u64..16, 0u32..8), 0..64),
    ) {
        let mut chunk = StreamChunk::new();
        for (i, &(key, group)) in rows.iter().enumerate() {
            chunk.push(key, Value::Int(i as i64), i as u64);
            chunk.set_group(i, group);
        }
        let mut sorted = StreamChunk::new();
        if ChunkSorter::new().sort_into(&chunk, 8, &mut sorted) {
            for g in 0..8u32 {
                let per_group = |c: &StreamChunk| -> Vec<(u64, u64)> {
                    (0..c.len())
                        .filter(|&i| c.group_at(i) == g)
                        .map(|i| (c.key_at(i), c.ts_at(i)))
                        .collect()
                };
                prop_assert_eq!(per_group(&sorted), per_group(&chunk), "group {}", g);
            }
            prop_assert_eq!(sorted.len(), chunk.len());
        } else {
            // Already sorted: the sorter must have left the output alone.
            prop_assert!(chunk.groups_sorted());
        }
    }
}

/// Deterministic pins of the codec corner cases the wire path produces.
#[test]
fn chunk_codec_pins_empty_allnull_and_masked() {
    use albic::engine::codec::{Reader, Writer};

    // Empty chunk.
    let empty = StreamChunk::new();
    let mut w = Writer::new();
    empty.encode(&mut w);
    let back = StreamChunk::decode(&mut Reader::new(&w.into_bytes())).unwrap();
    assert!(back.is_empty());

    // All-Null value column.
    let mut nulls = StreamChunk::new();
    for i in 0..5u64 {
        nulls.push(i, Value::Null, i);
    }
    let mut w = Writer::new();
    nulls.encode(&mut w);
    let back = StreamChunk::decode(&mut Reader::new(&w.into_bytes())).unwrap();
    assert_eq!(back.to_tuples(), nulls.to_tuples());

    // Visibility-masked rows survive the trip still masked.
    let mut masked = StreamChunk::new();
    for i in 0..4u64 {
        masked.push(i, Value::Int(i as i64), i);
    }
    masked.hide(1);
    masked.hide(3);
    let mut w = Writer::new();
    masked.encode(&mut w);
    let back = StreamChunk::decode(&mut Reader::new(&w.into_bytes())).unwrap();
    assert_eq!(back, masked);
    assert_eq!(back.visible_len(), 2);
    assert_eq!(
        back.to_tuples()
            .iter()
            .map(|t| t.value.as_int().unwrap())
            .collect::<Vec<_>>(),
        vec![0, 2]
    );
}

/// Deterministic pin of the core scenario: tiny batches, a small channel,
/// and back-to-back multi-move periods — the plan always lands mid-chunk,
/// so migration buffers fill and replay as chunks.
#[test]
fn mid_chunk_migration_matches_row_oracle() {
    let schedule = vec![
        vec![(3, 1), (9, 2), (14, 0)],
        vec![(3, 2), (6, 1)],
        vec![(9, 0), (14, 2), (1, 1)],
    ];
    assert_counting_matches_reference(ReconfigMode::Quiesce, 4, 16, 0, &schedule, &[]);
}

/// Period-end emissions reach a downstream operator on another worker:
/// a window on node 0 flushes into counters spread over nodes 1 and 0,
/// so each flush takes both the cross-worker hand-off and the local
/// worklist. Every key is seen every period, so the counters must total
/// exactly `KEYS` per period — each emission counted once — and the final
/// states and every per-period signal must equal the reference's.
#[test]
fn period_end_emissions_reach_a_downstream_counter_exactly_once() {
    let groups = 8u32;
    // events round-robin, window all on node 0, count alternating 1/0.
    let assignment: Vec<u32> = (0..groups)
        .map(|g| g % NODES as u32)
        .chain((0..groups).map(|_| 0))
        .chain((0..groups).map(|g| 1 - g % 2))
        .collect();
    let periods = 3;
    for batch in [1, 4, 64] {
        let job = Job::builder()
            .source("events", groups, Identity)
            .operator("window", groups, WindowCount)
            .operator("count", groups, Counting)
            .edge("events", "window")
            .edge("window", "count")
            .nodes(NODES)
            .routing_assignment(assignment.clone())
            .runtime_config(RuntimeConfig {
                batch_size: batch,
                ..RuntimeConfig::default()
            })
            .policy(Policy::noop())
            .build_threaded()
            .expect("valid job spec");
        let topology = job.engine().topology().clone();
        let run = assert_matches_reference(job, &vec![vec![]; periods], &[]);
        let counted: u64 = support::counts_of(&topology, &run.states).iter().sum();
        assert_eq!(counted, support::KEYS * periods as u64, "batch {batch}");
        for (p, stats) in run.stats.iter().enumerate() {
            assert!(stats.cross_tuples > 0.0, "batch {batch} period {p}");
        }
    }
}

/// Regression: the boundary once settled window emissions with a fixed
/// three barrier rounds, so emissions crossing more workers than that
/// leaked into the next period — here period 0's later hops and counter
/// read no load where the reference counts every emission. The counting
/// quiesce waits until the chain is quiet: every per-period signal and
/// the final states equal the reference's.
#[test]
fn period_end_emissions_cross_a_deep_chain_within_their_period() {
    let job = support::deep_window_chain(NODES)
        .build_threaded()
        .expect("valid job spec");
    let topology = job.engine().topology().clone();
    let periods = 4;
    let run = assert_matches_reference(job, &vec![vec![]; periods], &[]);
    let counted: u64 = support::counts_of(&topology, &run.states).iter().sum();
    assert_eq!(counted, support::KEYS * periods as u64);
}

/// The same chain with a checkpoint at every boundary and a worker killed
/// right after one: the checkpoint must be cut after the period's window
/// emissions landed, or the rows still in flight at the capture are in
/// neither the checkpoint nor the replay log, and recovery loses them.
#[test]
fn period_end_emissions_of_a_deep_chain_survive_a_kill_after_the_boundary() {
    let mut job = support::deep_window_chain(NODES)
        .checkpoint_interval(1)
        .build_threaded()
        .expect("valid job spec");
    let topology = job.engine().topology().clone();
    let initial = job.engine().routing_snapshot();
    let source = topology.operator_by_name("events").expect("events source");
    let periods = 4u64;
    let input: Vec<_> = (0..periods)
        .map(|p| vec![(source, support::period_input(p).concat())])
        .collect();
    let reference = run_reference(&topology, &initial, &input);
    for p in 0..periods {
        inject_period(&mut job, p, &[]);
        let step = job.step();
        if p == 1 {
            assert!(step.recovery.failed.is_empty());
            assert!(job.engine_mut().inject_fault(NodeId::new(1)));
        }
        if p == 2 {
            assert_eq!(step.recovery.failed, vec![NodeId::new(1)]);
        }
    }
    job.settle();
    assert_eq!(
        support::final_states(job.engine()),
        reference.states,
        "final per-group states diverge from the reference interpreter"
    );
    job.shutdown();
}
