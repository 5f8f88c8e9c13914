//! `controller_sim`: the paper's 40-node synthetic collocation scenario on
//! the deterministic simulator — 800 key groups over 20 operators, 50 %
//! obtainable collocation, ±2 % per-period jitter, 50 % mean node load (so
//! threshold scaling acts: the cluster grows to about 52 nodes) — under
//! ALBIC with a 20-migration budget.
//!
//! Why: the controller layers (`stats`, the `core` framework, ALBIC and
//! scaling, `milp`, `partition`) do all the work, with no threads and no
//! I/O. Its quality outputs repeat exactly for a seed, so any change in
//! the plans shows.
//!
//! It runs by hand (`run.py --workload controller_sim`) and is not in
//! `BENCHMARK.json`: every driven workload must report every end-to-end
//! metric, and the simulator has no data plane, so no tuple throughput or
//! event latency. ALBIC and threshold scaling run on real threads in the
//! driven `rebalance` workload.

use std::time::Instant;

use albic::core::albic::{Albic, AlbicConfig};
use albic::core::framework::AdaptationFramework;
use albic::core::job::{Job, Policy};
use albic::core::scaling::ThresholdScaling;
use albic::engine::sim::SimEngine;
use albic::engine::substrate::ApplyReport;
use albic::engine::PeriodRecord;
use albic::milp::MigrationBudget;
use albic::workloads::{SyntheticConfig, SyntheticWorkload};

use crate::trace::{traced_step, TimedAllocator, Tracer};
use crate::util::{median, peak_rss_mib, quantile, records_match, Outcome, Rng};
use crate::Args;

const NODES: usize = 40;
/// Adaptation rounds per second of `--seconds`, over all scenarios; never
/// fewer than [`MIN_ROUNDS`] per scenario.
const ROUNDS_PER_SECOND: f64 = 60.0;
/// Enough for ten timed rounds beyond the pooled p90.
const MIN_ROUNDS: usize = 40;
/// The first rounds of a scenario scale the cluster out and replan it
/// from scratch (10–60 ms each, against about 3 ms after); they count in
/// the quality figures but are not round-time samples.
const UNTIMED_ROUNDS: usize = 10;
/// Scenarios per run, each from its own seed derived from `--seed`.
const SCENARIOS: usize = 4;
/// Scenario + engine builds timed per scenario; `setup_s` is the median
/// over all of them.
const SETUPS: usize = 21;
/// Scaling band `[low, high]` and target, in percent load.
const SCALING: (f64, f64, f64) = (35.0, 80.0, 60.0);
const BUDGET: usize = 20;

fn scenario(seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        one_to_one_pct: 50.0,
        background_comm: true,
        period_jitter: 0.02,
        mean_node_load: 50.0,
        seed,
        ..SyntheticConfig::cluster(NODES)
    })
}

fn albic_config() -> AlbicConfig {
    AlbicConfig {
        budget: MigrationBudget::Count(BUDGET),
        ..Default::default()
    }
}

type SimJob = Job<SimEngine<SyntheticWorkload>>;
/// The traced run's copy of the preset's policy stack, with the allocator
/// wrapped for timing.
type TracedPolicy = AdaptationFramework<TimedAllocator<Albic>>;

/// One scenario's job. Untraced, it runs the policy preset the `Job` API
/// resolves itself; traced, the same engine is driven by a hand-assembled
/// copy of that preset, returned alongside.
fn build(seed: u64, tracer: Option<&Tracer>) -> (SimJob, Option<TracedPolicy>) {
    let workload = scenario(seed);
    let (low, high, target) = SCALING;
    let (policy, traced) = match tracer {
        None => (
            Policy::albic_config(albic_config())
                .with_downstream(workload.downstream_groups())
                .with_scaling(low, high, target),
            None,
        ),
        Some(t) => {
            let albic = Albic::new(albic_config(), workload.downstream_groups());
            let traced = AdaptationFramework::with_scaling(
                TimedAllocator::new(albic, t.clone()),
                ThresholdScaling::new(low, high, target),
            );
            (Policy::noop(), Some(traced))
        }
    };
    let job = Job::builder()
        .nodes(NODES)
        .policy(policy)
        .build_simulated(workload)
        .expect("valid simulated job");
    (job, traced)
}

/// Drive `job` for `periods` rounds — through `Job::step`, or phase by
/// phase with `traced` — and hand `each` every round's id (counted from
/// `first_round`), wall time in ms, planned migrations and apply report.
fn drive(
    job: &mut SimJob,
    mut traced: Option<(&mut TracedPolicy, &Tracer)>,
    first_round: u64,
    periods: usize,
    mut each: impl FnMut(usize, u64, f64, usize, &ApplyReport),
) {
    for p in 0..periods {
        let round = first_round + p as u64;
        let t0 = Instant::now();
        let (planned, apply) = match traced.as_mut() {
            Some((policy, t)) => {
                t.set_round(round);
                let r = traced_step(job.engine_mut(), *policy, t);
                (r.plan.migrations.len(), r.apply)
            }
            None => {
                let r = job.step();
                (r.plan.migrations.len(), r.apply)
            }
        };
        each(p, round, t0.elapsed().as_secs_f64() * 1e3, planned, &apply);
    }
}

/// Rounds per scenario for a run of `seconds`.
pub fn rounds(seconds: u64) -> usize {
    ((seconds as f64 * ROUNDS_PER_SECOND) as usize / SCENARIOS).max(MIN_ROUNDS)
}

/// Seed of the `i`-th scenario of a run.
pub fn scenario_seed(seed: u64, i: usize) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ i as u64).next_u64()
}

/// Run a scenario for `periods` rounds — through `Job::run`, or traced
/// phase by phase — and return the `PeriodRecord` history.
pub fn history(seed: u64, periods: usize, tracer: Option<&Tracer>) -> Vec<PeriodRecord> {
    let (mut job, mut policy) = build(seed, tracer);
    let Some(traced) = policy.as_mut().zip(tracer) else {
        return job.run(periods).to_vec();
    };
    drive(&mut job, Some(traced), 0, periods, |_, _, _, _, _| {});
    job.history().to_vec()
}

/// Run the scenarios one after another and pool their rounds.
pub fn run(args: &Args, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let periods = rounds(args.seconds);
    let mut setup = Vec::new();
    let mut round_ms = Vec::new();
    let mut sampled = Vec::new();
    let mut records: Vec<PeriodRecord> = Vec::new();
    let (mut planned, mut failed, mut migration_bytes) = (0u64, 0u64, 0usize);
    let (mut added, mut marked) = (0u64, 0u64);
    for i in 0..SCENARIOS {
        let seed = scenario_seed(args.seed, i);
        // Set-up: scenario generation and engine build, several times.
        let mut built = None;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            built = Some(build(seed, tracer));
            setup.push(t0.elapsed().as_secs_f64());
        }
        let (mut job, mut policy) = built.expect("at least one set-up");
        let traced = policy.as_mut().zip(tracer);
        let first_round = (i * periods) as u64;
        drive(
            &mut job,
            traced,
            first_round,
            periods,
            |p, round, ms, plan_len, apply| {
                if p >= UNTIMED_ROUNDS {
                    round_ms.push(ms);
                    sampled.push(round);
                }
                planned += plan_len as u64;
                failed += apply.failed.len() as u64;
                migration_bytes += apply.total_state_bytes();
                added += apply.added.len() as u64;
                marked += apply.marked.len() as u64;
            },
        );
        // Correctness gate: the measured history equals `Job::run` on the
        // same seed and schedule.
        if let Err(e) = records_match(job.history(), &history(seed, periods, None)) {
            out.check(false, || format!("scenario {i} differs from Job::run: {e}"));
        }
        records.extend_from_slice(job.history());
    }
    out.check(failed == 0, || format!("{failed} migrations failed"));
    out.attempted = records.len() as u64 + planned;
    out.failed = failed;

    let n = records.len() as f64;
    let sum = |f: fn(&PeriodRecord) -> f64| records.iter().map(f).sum::<f64>();
    out.metric("setup_s", median(&setup), "s");
    for (name, q) in [
        ("round_ms_p50", 0.5),
        ("round_ms_p75", 0.75),
        ("round_ms_p90", 0.9),
    ] {
        out.metric(name, quantile(&round_ms, q).unwrap_or(f64::NAN), "ms");
    }
    out.metric(
        "peak_rss_mb",
        peak_rss_mib(std::process::id()).unwrap_or(f64::NAN),
        "MiB",
    );
    out.metric("load_distance", sum(|r| r.load_distance) / n, "pp");
    out.metric("collocation_pct", sum(|r| r.collocation_factor) / n, "%");
    out.metric("migrations", sum(|r| r.migrations as f64), "count");
    out.metric("nodes_mean", sum(|r| r.num_nodes as f64) / n, "count");
    out.metric("migration.count", planned as f64, "count");
    out.metric("migration.state_bytes", migration_bytes as f64, "B");
    out.metric("migration.failed", failed as f64, "count");
    out.metric("scaling.nodes_added", added as f64, "count");
    out.metric("scaling.nodes_marked", marked as f64, "count");
    if let Some(t) = tracer {
        crate::layer_metrics(&mut out, t, &sampled, &[]);
    }
    out
}
