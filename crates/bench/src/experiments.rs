//! One function per paper figure; each returns named [`Table`]s.
//!
//! Figures 2-14 run on the deterministic simulator; `fig15` drives the
//! *threaded* runtime. Every driver assembles its run with the fluent
//! [`Job`] builder — the policy stack, cluster, routing and control loop
//! are all declared in one place, and the only difference between the
//! simulated figures and the live one is `build_simulated(...)` vs
//! `build_threaded()`.

use std::sync::atomic::{AtomicU64, Ordering};

use albic_core::albic::AlbicConfig;
use albic_core::allocator::NodeSet;
use albic_core::baselines::PoTC;
use albic_core::job::{Job, Policy};
use albic_core::metrics;
use albic_engine::checkpoint::CheckpointMode;
use albic_engine::operator::{Counting, Identity, PaddedCounting};
use albic_engine::reconfig::ReconfigPlan;
use albic_engine::sim::{PeriodRecord, WorkloadModel};
use albic_engine::tuple::{Tuple, Value};
use albic_milp::MigrationBudget;
use albic_types::{KeyGroupId, NodeId};
use albic_workloads::airline::AirlineJobWorkload;
use albic_workloads::weather::WeatherJob4Workload;
use albic_workloads::wikipedia::WikiJob1Workload;
use albic_workloads::{SyntheticConfig, SyntheticWorkload};

use crate::{banner, work_for_seconds, Table};

/// A simulated job over `workload` on `nodes` homogeneous workers with
/// round-robin initial allocation — the standard figure setup.
fn sim_job<W: WorkloadModel>(
    workload: W,
    nodes: usize,
    policy: Policy,
) -> Job<albic_engine::SimEngine<W>> {
    Job::builder()
        .nodes(nodes)
        .policy(policy)
        .build_simulated(workload)
        .expect("valid job spec")
}

/// Figs 2-4: solver quality (load distance after one adaptation round) vs
/// the `varies` load shift, for several migration budgets and solver work
/// budgets, against Flux. One table per `maxMigrations` value.
pub fn fig_solver_quality(nodes: usize, fast: bool) -> Vec<(String, Table)> {
    let fig = match nodes {
        20 => "fig02",
        40 => "fig03",
        _ => "fig04",
    };
    banner(
        &format!(
            "{fig}: {nodes} nodes, {} key groups, {} operators",
            nodes * 20,
            nodes / 2
        ),
        "MILP consistently beats Flux at every budget; a few 'seconds' of \
         solving already converge near the final quality",
    );
    let budgets: &[u64] = &[5, 10, 30, 60];
    let max_migrations: &[usize] = if fast { &[10, 20] } else { &[10, 20, 30, 40] };
    let varies_steps: Vec<f64> = if fast {
        vec![0.0, 40.0, 80.0]
    } else {
        (0..=10).map(|v| v as f64 * 10.0).collect()
    };

    let mut out = Vec::new();
    for &mm in max_migrations {
        let mut table = Table::new(&["varies", "flux", "milp5s", "milp10s", "milp30s", "milp60s"]);
        for &varies in &varies_steps {
            let workload = || {
                let cfg = SyntheticConfig {
                    varies,
                    seed: 0x5E17 + varies as u64,
                    ..SyntheticConfig::cluster(nodes)
                };
                SyntheticWorkload::new(cfg)
            };
            // One adaptation round, then measure the post-plan placement.
            let one_round = |policy: Policy| -> f64 {
                let mut job = sim_job(workload(), nodes, policy);
                let _ = job.run(1);
                let stats = job.measure();
                stats.load_distance(job.cluster())
            };
            let mut row = vec![varies, one_round(Policy::flux(mm))];
            for &secs in budgets {
                row.push(one_round(
                    Policy::milp()
                        .with_budget(MigrationBudget::Count(mm))
                        .with_solver_work(work_for_seconds(secs)),
                ));
            }
            table.row(row);
        }
        let name = format!("{fig}_maxmigr{mm}");
        table.print();
        println!(
            "summary maxMigr={mm}: mean flux={:.2} milp60s={:.2}\n",
            table.mean_of("flux"),
            table.mean_of("milp60s")
        );
        out.push((name, table));
    }
    out
}

/// Fig 5: integrated vs non-integrated scale-in — load distance over
/// periods and time to fully drain, for 1 and 5 overloaded nodes.
pub fn fig05_scalein(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig05: integrating horizontal scaling with load balancing",
        "the integrated MILP reaches a good load distance much faster while \
         scaling in within a similar number of periods",
    );
    let nodes = if fast { 30 } else { 60 };
    let to_remove = nodes / 6;
    let mm = 20usize;
    let periods = 14usize;

    let mut dist_table = Table::new(&["period", "int_1ol", "nonint_1ol", "int_5ol", "nonint_5ol"]);
    let mut drain_table = Table::new(&["scenario_ol", "integrated", "non_integrated"]);
    let mut series: Vec<Vec<f64>> = Vec::new();
    let mut drains: Vec<(f64, f64, f64)> = Vec::new();

    for &hot in &[1usize, 5] {
        let workload = || {
            let cfg = SyntheticConfig {
                hot_nodes: hot,
                mean_node_load: 45.0,
                seed: 0xF1905 + hot as u64,
                ..SyntheticConfig::cluster(nodes)
            };
            SyntheticWorkload::new(cfg)
        };
        let victims: Vec<NodeId> = (0..to_remove)
            .map(|i| NodeId::new((nodes - 1 - i) as u32))
            .collect();

        let run = |policy: Policy| -> (Vec<f64>, f64) {
            let mut job = sim_job(workload(), nodes, policy);
            // Mark nodes for removal up front (the scaling decision under
            // test is the draining, not the sizing).
            let _ = job.measure();
            let _ = job.apply(&ReconfigPlan {
                mark_removal: victims.clone(),
                ..Default::default()
            });
            let history = job.run(periods).to_vec();
            let dists: Vec<f64> = history.iter().skip(1).map(|r| r.load_distance).collect();
            // First period with no marked nodes left (all drained).
            let drained_at = history
                .iter()
                .position(|r| r.period > 0 && r.marked_nodes == 0)
                .map(|p| p as f64)
                .unwrap_or(periods as f64);
            (dists, drained_at)
        };

        let (int_d, int_t) = run(Policy::milp().with_budget(MigrationBudget::Count(mm)));
        let (non_d, non_t) = run(Policy::non_integrated_scale_in(mm));
        drains.push((hot as f64, int_t, non_t));
        series.push(int_d);
        series.push(non_d);
    }

    let n = series.iter().map(Vec::len).min().unwrap_or(0);
    for p in 0..n {
        dist_table.row(vec![
            p as f64 + 1.0,
            series[0][p],
            series[1][p],
            series[2][p],
            series[3][p],
        ]);
    }
    for (hot, int_t, non_t) in drains {
        drain_table.row(vec![hot, int_t, non_t]);
    }
    dist_table.print();
    drain_table.print();
    println!(
        "summary: mean distance integrated(5OL)={:.2} vs non-integrated(5OL)={:.2}\n",
        dist_table.mean_of("int_5ol"),
        dist_table.mean_of("nonint_5ol")
    );
    vec![
        ("fig05_distance".into(), dist_table),
        ("fig05_drain_time".into(), drain_table),
    ]
}

/// Figs 6-7: Real Job 1 load distance (MILP vs Flux vs PoTC) and
/// migration counts (MILP vs Flux), maxMigrations = 13.
pub fn fig06_07(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig06/fig07: Real Job 1 on the Wikipedia stream (20 workers, 300 key groups)",
        "MILP holds load distance below ~1%; Flux fluctuates up to ~7%; PoTC \
         is erratic due to merge skew; both MILP and Flux stay within the \
         13-migration budget",
    );
    let periods = if fast { 20 } else { 60 };
    let workers = 20usize;
    let mm = 13usize;
    let mk = || WikiJob1Workload::new(70_000.0, 100, 0x31B1);

    let milp_hist = sim_job(
        mk(),
        workers,
        Policy::milp().with_budget(MigrationBudget::Count(mm)),
    )
    .run(periods)
    .to_vec();
    let flux_hist = sim_job(mk(), workers, Policy::flux(mm))
        .run(periods)
        .to_vec();

    // PoTC observes the same (noop-adapted) run through the tick hook.
    let potc = PoTC::new(0x907C);
    let mut potc_dists: Vec<f64> = Vec::new();
    let _ = sim_job(mk(), workers, Policy::noop()).run_with(periods, |t| {
        let ns = NodeSet::from_cluster(t.cluster);
        potc_dists.push(potc.evaluate(&t.report.stats, &ns).load_distance);
    });

    let mut quality = Table::new(&["period", "milp", "flux", "potc"]);
    for p in 1..periods {
        quality.row(vec![
            p as f64,
            milp_hist[p].load_distance,
            flux_hist[p].load_distance,
            potc_dists[p],
        ]);
    }
    let mut migrations = Table::new(&["period", "milp", "flux"]);
    for p in 0..periods {
        migrations.row(vec![
            p as f64,
            milp_hist[p].migrations as f64,
            flux_hist[p].migrations as f64,
        ]);
    }
    quality.print();
    migrations.print();
    println!(
        "summary: mean distance milp={:.2} flux={:.2} potc={:.2}; mean migrations milp={:.1} flux={:.1}\n",
        quality.mean_of("milp"),
        quality.mean_of("flux"),
        quality.mean_of("potc"),
        migrations.mean_of("milp"),
        migrations.mean_of("flux"),
    );
    vec![
        ("fig06_quality".into(), quality),
        ("fig07_migrations".into(), migrations),
    ]
}

/// Figs 8-9: unrestricted vs budgeted balancing — quality and cumulative
/// migration latency.
pub fn fig08_09(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig08/fig09: restricting the migration budget (Real Job 1)",
        "unlimited budget gives the best balance but enormous cumulative \
         migration latency; 13 groups/round costs almost nothing and stays \
         close in quality",
    );
    let periods = if fast { 20 } else { 60 };
    let workers = 20usize;
    let mk = || WikiJob1Workload::new(70_000.0, 100, 0x8090);

    let mut histories = Vec::new();
    for budget in [
        MigrationBudget::Unlimited,
        MigrationBudget::Count(10),
        MigrationBudget::Count(13),
    ] {
        histories.push(
            sim_job(mk(), workers, Policy::milp().with_budget(budget))
                .run(periods)
                .to_vec(),
        );
    }

    let mut quality = Table::new(&["period", "no_limit", "kg10", "kg13"]);
    for p in 1..periods {
        quality.row(vec![
            p as f64,
            histories[0][p].load_distance,
            histories[1][p].load_distance,
            histories[2][p].load_distance,
        ]);
    }
    let mut overhead = Table::new(&["period", "no_limit", "kg10", "kg13"]);
    let pauses: Vec<Vec<f64>> = histories
        .iter()
        .map(|h| metrics::cumulative_pause_minutes(h))
        .collect();
    for p in 0..periods {
        overhead.row(vec![p as f64, pauses[0][p], pauses[1][p], pauses[2][p]]);
    }
    quality.print();
    overhead.print();
    println!(
        "summary: mean distance no_limit={:.2} kg13={:.2}; final pause minutes no_limit={:.1} kg13={:.1}\n",
        quality.mean_of("no_limit"),
        quality.mean_of("kg13"),
        pauses[0].last().copied().unwrap_or(0.0),
        pauses[2].last().copied().unwrap_or(0.0),
    );
    vec![
        ("fig08_quality".into(), quality),
        ("fig09_overhead".into(), overhead),
    ]
}

/// Helper: run ALBIC or COLA over a synthetic collocation scenario and
/// report (mean load distance, final collocation factor).
fn run_collocation_scenario(
    nodes: usize,
    one_to_one_pct: f64,
    use_albic: bool,
    periods: usize,
) -> (f64, f64) {
    let cfg = SyntheticConfig {
        one_to_one_pct,
        background_comm: true,
        period_jitter: 0.02,
        mean_node_load: 45.0,
        seed: 0xC0110 + nodes as u64,
        ..SyntheticConfig::cluster(nodes)
    };
    let workload = SyntheticWorkload::new(cfg);
    let policy = if use_albic {
        Policy::albic_config(AlbicConfig {
            budget: MigrationBudget::Count(20),
            ..Default::default()
        })
        .with_downstream(workload.downstream_groups())
    } else {
        Policy::cola()
    };
    let mut job = sim_job(workload, nodes, policy);
    let history = job.run(periods);
    let tail = &history[history.len().saturating_sub(5)..];
    let dist = tail.iter().map(|r| r.load_distance).sum::<f64>() / tail.len() as f64;
    let col = tail.iter().map(|r| r.collocation_factor).sum::<f64>() / tail.len() as f64;
    (dist, col)
}

/// Fig 10: ALBIC vs COLA over the maximum obtainable collocation.
pub fn fig10(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig10: load distance and collocation vs max obtainable collocation (40 nodes)",
        "ALBIC achieves lower load distance than COLA and slightly better \
         collocation at every collocation level",
    );
    let periods = if fast { 10 } else { 25 };
    let nodes = if fast { 20 } else { 40 };
    let steps: Vec<f64> = if fast {
        vec![0.0, 50.0, 100.0]
    } else {
        (0..=10).map(|x| x as f64 * 10.0).collect()
    };
    let mut table = Table::new(&[
        "max_collocation",
        "albic_dist",
        "albic_col",
        "cola_dist",
        "cola_col",
    ]);
    for &pct in &steps {
        let (ad, ac) = run_collocation_scenario(nodes, pct, true, periods);
        let (cd, cc) = run_collocation_scenario(nodes, pct, false, periods);
        table.row(vec![pct, ad, ac, cd, cc]);
    }
    table.print();
    println!(
        "summary: mean distance albic={:.2} cola={:.2}; mean collocation albic={:.1}% cola={:.1}%\n",
        table.mean_of("albic_dist"),
        table.mean_of("cola_dist"),
        table.mean_of("albic_col"),
        table.mean_of("cola_col"),
    );
    vec![("fig10_collocation".into(), table)]
}

/// Fig 11: ALBIC vs COLA at 50% max collocation across cluster sizes.
pub fn fig11(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig11: cluster configurations at 50% max collocation",
        "ALBIC consistently beats COLA on load distance and collocation for \
         20/40/60-node clusters",
    );
    let periods = if fast { 8 } else { 20 };
    let configs: &[usize] = if fast { &[20, 40] } else { &[20, 40, 60] };
    let mut table = Table::new(&["nodes", "albic_dist", "albic_col", "cola_dist", "cola_col"]);
    for &nodes in configs {
        let (ad, ac) = run_collocation_scenario(nodes, 50.0, true, periods);
        let (cd, cc) = run_collocation_scenario(nodes, 50.0, false, periods);
        table.row(vec![nodes as f64, ad, ac, cd, cc]);
    }
    table.print();
    println!();
    vec![("fig11_configs".into(), table)]
}

#[derive(Clone, Copy)]
enum JobKind {
    Job2,
    Job3 { cola_half_rate: bool },
    Job4,
}

/// Shared driver for the Real Job figures 12-14: worst-case initial
/// allocation (no communicating pair collocated), ALBIC or COLA.
fn real_job_run(job: JobKind, use_albic: bool, periods: usize) -> Vec<PeriodRecord> {
    let workers = 20usize;
    let groups_per_op = 100u32;

    fn drive<W: WorkloadModel>(
        workload: W,
        downstream: Vec<u32>,
        workers: usize,
        num_ops: u32,
        groups_per_op: u32,
        use_albic: bool,
        periods: usize,
    ) -> Vec<PeriodRecord> {
        // Worst-case initial allocation: group g of op k → node
        // (g + k) mod n, so no communicating pair starts collocated.
        let assignment: Vec<u32> = (0..groups_per_op * num_ops)
            .map(|g| {
                let op = g / groups_per_op;
                let idx = g % groups_per_op;
                (idx + op) % workers as u32
            })
            .collect();
        let policy = if use_albic {
            Policy::albic_config(AlbicConfig {
                budget: MigrationBudget::Count(10),
                ..Default::default()
            })
            .with_downstream(downstream)
        } else {
            Policy::cola()
        };
        let mut job = Job::builder()
            .nodes(workers)
            .routing_assignment(assignment)
            .policy(policy)
            .build_simulated(workload)
            .expect("valid job spec");
        job.run(periods).to_vec()
    }

    match job {
        JobKind::Job2 => {
            let w = AirlineJobWorkload::job2(70_000.0, groups_per_op, 0x12);
            let dg = w.downstream_groups();
            drive(w, dg, workers, 2, groups_per_op, use_albic, periods)
        }
        JobKind::Job3 { cola_half_rate } => {
            let mut w = AirlineJobWorkload::job3(70_000.0, groups_per_op, 0x13);
            if cola_half_rate && !use_albic {
                w.rate_scale = 0.5; // the paper halves COLA's input rate
            }
            let dg = w.downstream_groups();
            drive(w, dg, workers, 3, groups_per_op, use_albic, periods)
        }
        JobKind::Job4 => {
            let w = WeatherJob4Workload::new(40_000.0, groups_per_op, 0x14);
            let dg = w.downstream_groups();
            let ops = WeatherJob4Workload::NUM_OPERATORS;
            drive(w, dg, workers, ops, groups_per_op, use_albic, periods)
        }
    }
}

fn job_tables(
    name: &str,
    albic_hist: &[PeriodRecord],
    cola_hist: Option<&[PeriodRecord]>,
) -> Vec<(String, Table)> {
    let albic_idx = metrics::load_index_series(albic_hist, 2);
    let cola_idx = cola_hist.map(|h| metrics::load_index_series(h, 2));
    let mut t = Table::new(&[
        "period",
        "albic_col",
        "albic_dist",
        "albic_loadindex",
        "albic_migr",
        "cola_col",
        "cola_dist",
        "cola_loadindex",
        "cola_migr",
    ]);
    for p in 0..albic_hist.len() {
        let c = cola_hist.map(|h| &h[p]);
        t.row(vec![
            p as f64,
            albic_hist[p].collocation_factor,
            albic_hist[p].load_distance,
            albic_idx[p],
            albic_hist[p].migrations as f64,
            c.map(|r| r.collocation_factor).unwrap_or(f64::NAN),
            c.map(|r| r.load_distance).unwrap_or(f64::NAN),
            cola_idx.as_ref().map(|i| i[p]).unwrap_or(f64::NAN),
            c.map(|r| r.migrations as f64).unwrap_or(f64::NAN),
        ]);
    }
    t.print();
    println!(
        "summary {name}: final collocation albic={:.1}% cola={:.1}%; final load index albic={:.1}% ; mean migrations albic={:.1} cola={:.1}\n",
        albic_hist.last().map(|r| r.collocation_factor).unwrap_or(0.0),
        cola_hist.and_then(|h| h.last()).map(|r| r.collocation_factor).unwrap_or(f64::NAN),
        albic_idx.last().copied().unwrap_or(100.0),
        t.mean_of("albic_migr"),
        t.mean_of("cola_migr"),
    );
    vec![(name.to_string(), t)]
}

/// Fig 12: Real Job 2 — ALBIC gradually reaches COLA's (immediate) perfect
/// collocation, halving the load index, with ~10 migrations per period vs
/// COLA's mass migrations.
pub fn fig12(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig12: Real Job 2 (airline delays, perfectly collocatable)",
        "COLA hits 100% collocation immediately; ALBIC converges to it \
         gradually; ALBIC's load index falls toward ~50% while migrating \
         ~10 groups/period against COLA's ~200",
    );
    let periods = if fast { 25 } else { 90 };
    let a = real_job_run(JobKind::Job2, true, periods);
    let c = real_job_run(JobKind::Job2, false, periods);
    job_tables("fig12_job2", &a, Some(&c))
}

/// Fig 13: Real Job 3 — the route-keyed operator caps collocation at
/// roughly half of Job 2's.
pub fn fig13(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig13: Real Job 3 (adds RouteDelay; collocation halves)",
        "collocation factor reaches only ~half of Job 2's because route \
         flows cannot be collocated with airplane-keyed state",
    );
    let periods = if fast { 25 } else { 90 };
    let a = real_job_run(
        JobKind::Job3 {
            cola_half_rate: true,
        },
        true,
        periods,
    );
    let c = real_job_run(
        JobKind::Job3 {
            cola_half_rate: true,
        },
        false,
        periods,
    );
    job_tables("fig13_job3", &a, Some(&c))
}

/// Fig 14: Real Job 4 — ALBIC gradually approaches COLA's ~61% collocation
/// level while keeping ~10 migrations/period.
pub fn fig14(fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig14: Real Job 4 (weather rainscore join)",
        "COLA's from-scratch collocation sits near 61%; ALBIC converges to a \
         similar level with low load distance and 10 migrations/period",
    );
    let periods = if fast { 25 } else { 90 };
    let a = real_job_run(JobKind::Job4, true, periods);
    let c = real_job_run(JobKind::Job4, false, periods);
    job_tables("fig14_job4", &a, Some(&c))
}

/// Tuples injected into the live pipeline at each period of the fig15
/// scenario: a ramp into overload, a plateau, then a lull that triggers
/// scale-in. (The overload is the point of the scenario, so `--fast` does
/// not scale it down — the whole run takes well under a second anyway.)
/// Keep in sync with `rate` in `examples/live_pipeline.rs`, the CI smoke
/// for this scenario.
pub fn fig15_rate(period: u64) -> usize {
    match period {
        0..=3 => 4_000 * (period as usize + 1),
        4..=9 => 16_000,
        _ => 1_500,
    }
}

/// Fig 15 (beyond the paper): the integrated loop on the *threaded*
/// runtime. Starting from one worker, the load ramp forces elastic
/// scale-out — worker threads are spawned and key groups migrate onto them
/// with real state shipping — and the lull afterwards drains and joins
/// workers again.
///
/// Unlike the simulator figures, the load columns here are *measured*
/// values: a period's record shows the placement the period actually ran
/// under, and a plan's effect appears in the next row (the simulator
/// re-measures the closed period post-plan, which real threads cannot).
pub fn fig15_live_runtime(_fast: bool) -> Vec<(String, Table)> {
    banner(
        "fig15: live threaded runtime, elastic scale-out/in under a load ramp",
        "the same AdaptationFramework + MILP that drives the simulator runs \
         unchanged on real worker threads: overload adds workers and \
         rebalances onto them via the direct state migration protocol; the \
         lull drains marked workers and joins their threads",
    );
    let periods = 16u64;

    // A two-operator pipeline on a single worker node — the identical
    // builder call the simulated figures make, ending in build_threaded.
    let mut job = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(1)
        .policy(Policy::milp().with_scaling(35.0, 80.0, 60.0))
        .build_threaded()
        .expect("valid job spec");

    let mut table = Table::new(&[
        "period",
        "nodes",
        "marked",
        "mean_load",
        "load_distance",
        "migrations",
    ]);
    for p in 0..periods {
        let rate = fig15_rate(p);
        job.inject(
            "events",
            (0..rate).map(|i| Tuple::keyed(&(i % 64), Value::Int(i as i64), p)),
        );
        let _ = job.step();
        let rec = job.history().last().unwrap();
        table.row(vec![
            p as f64,
            rec.num_nodes as f64,
            rec.marked_nodes as f64,
            rec.mean_load,
            rec.load_distance,
            rec.migrations as f64,
        ]);
    }
    let summary = job.report();
    let (peak, end) = (summary.peak_nodes, summary.final_nodes);
    job.shutdown();

    table.print();
    println!("summary: scaled out to {peak} workers at peak, back to {end} after the lull\n");
    vec![("fig15_live_runtime".into(), table)]
}

/// Recovery scenario (beyond the paper): a scripted worker kill on the
/// *threaded* runtime under sustained load, swept over checkpoint
/// intervals. Longer intervals mean a longer post-checkpoint delta to
/// replay — the classic recovery-latency vs checkpoint-overhead
/// trade-off, measured on real worker threads.
///
/// `recovery_ms` is wall-clock and therefore machine-dependent, so it
/// is emitted only with `timings: true` (the `--timings` flag): the
/// default table holds nothing but deterministic columns
/// (`tuples_replayed`, `groups_restored`, `replayed_periods`) and is
/// byte-identical across runs and machines — the figure TSVs can be
/// diffed, the wall-clock numbers live in `BENCH_runtime.json`.
pub fn fig_recovery(fast: bool, timings: bool) -> Vec<(String, Table)> {
    banner(
        "fig_recovery: checkpoint-based recovery on the live runtime",
        "reconfiguration and fault tolerance share one mechanism: a killed \
         worker's key groups are restored from the latest period-aligned \
         checkpoint through the migration install path and the logged \
         delta is replayed — exactly-once, with latency growing with the \
         checkpoint interval",
    );
    let intervals: &[u64] = if fast { &[1, 4] } else { &[1, 2, 4, 8] };
    let periods = 10u64;
    let fault_at = 7u64; // deltas of 1/2/4/8 periods for intervals 1/2/4/8
    let rate = 1500i64;

    let mut header = vec![
        "checkpoint_interval",
        "tuples_replayed",
        "groups_restored",
        "replayed_periods",
    ];
    if timings {
        header.push("recovery_ms");
    }
    let mut table = Table::new(&header);
    for &interval in intervals {
        let mut job = Job::builder()
            .source("events", 16, Identity)
            .operator("count", 16, Counting)
            .edge("events", "count")
            .nodes(4)
            .checkpoint_interval(interval)
            .policy(Policy::noop())
            .build_threaded()
            .expect("valid job spec");
        for p in 0..periods {
            job.inject(
                "events",
                (0..rate).map(|i| Tuple::keyed(&(i % 64), Value::Int(i), p)),
            );
            if p == fault_at {
                assert!(job.engine_mut().inject_fault(NodeId::new(1)));
            }
            let _ = job.step();
        }
        let rec = &job.history()[fault_at as usize];
        assert_eq!(rec.failed_nodes, 1, "the scripted kill must land");
        let mut row = vec![
            interval as f64,
            rec.tuples_replayed,
            rec.groups_restored as f64,
            (rec.tuples_replayed / rate as f64).round(),
        ];
        if timings {
            row.push(rec.recovery_secs * 1e3);
        }
        table.row(row);
        job.shutdown();
    }

    table.print();
    println!(
        "summary: recovery replays the post-checkpoint delta; the replayed \
         tuple count (and with it the latency) grows with the checkpoint \
         interval\n"
    );

    // Large-state scenario: 64 padded key groups of ~16 KiB serialized
    // state each (~50x the state of the sweep above), warmed once and
    // then starved down to a handful of hot keys. Full-snapshot mode pays
    // O(total state) per capture; incremental mode captures only the
    // dirty groups and spills the cold ones, so capture cost tracks the
    // working set and recovery ships only the hot set — the spilled
    // groups stay on disk and fault in lazily, keeping recovery sublinear
    // in total state.
    let mut header = vec![
        "incremental",
        "steady_capture_bytes",
        "delta_bytes",
        "spilled_groups",
        "groups_restored",
        "lazy_groups",
        "tuples_replayed",
    ];
    if timings {
        header.push("recovery_ms");
    }
    let mut large = Table::new(&header);
    let steady = 6usize; // a post-spill, pre-fault period
    let warm_keys = 512i64;
    let hot_keys = 8i64;
    // Unique per call, not just per process: concurrent callers in one
    // process (parallel tests) must never share — and `remove_dir_all`
    // — each other's spill files.
    static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
    let spill_root = std::env::temp_dir().join(format!(
        "albic-fig-recovery-spill-{}-{}",
        std::process::id(),
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut totals = Vec::new();
    let mut steady_captures = Vec::new();
    for incremental in [false, true] {
        let _ = std::fs::remove_dir_all(&spill_root);
        let mut builder = Job::builder()
            .source("events", 8, Identity)
            .operator("padded", 64, PaddedCounting)
            .edge("events", "padded")
            .nodes(4)
            .checkpoint_interval(1)
            .policy(Policy::noop());
        if incremental {
            builder = builder
                .checkpoint_mode(CheckpointMode::Incremental)
                .spill_dir(spill_root.clone())
                .cold_after(2);
        }
        let mut job = builder.build_threaded().expect("valid job spec");
        let mut recovery = None;
        for p in 0..periods {
            let keys = if p == 0 { warm_keys } else { hot_keys };
            job.inject(
                "events",
                (0..keys * 3).map(|i| Tuple::keyed(&(i % keys), Value::Int(i), p)),
            );
            if p == fault_at {
                assert!(job.engine_mut().inject_fault(NodeId::new(1)));
            }
            let report = job.step();
            if p == fault_at {
                recovery = Some(report.recovery.clone());
            }
        }
        job.settle();
        // Exactly-once ground truth, identical across modes: the final
        // probe also faults every spilled group back in from its file.
        let topology = job.engine().topology().clone();
        let padded = topology.operator_by_name("padded").unwrap();
        let total: u64 = (0..topology.num_key_groups())
            .filter(|&g| topology.operator_of_group(KeyGroupId::new(g)) == padded)
            .filter_map(|g| job.engine().probe_state(KeyGroupId::new(g)))
            .map(|bytes| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&bytes[..8]);
                u64::from_le_bytes(arr)
            })
            .sum();
        totals.push(total);
        let recovery = recovery.expect("the scripted kill must land");
        assert_eq!(job.history()[fault_at as usize].failed_nodes, 1);
        let rec = &job.history()[steady];
        steady_captures.push(rec.checkpoint_bytes);
        if incremental {
            assert!(
                recovery.groups_spilled > 0,
                "the starved groups never spilled"
            );
        }
        let mut row = vec![
            f64::from(u8::from(incremental)),
            rec.checkpoint_bytes as f64,
            rec.delta_bytes as f64,
            rec.spilled_groups as f64,
            recovery.groups_restored as f64,
            recovery.groups_spilled as f64,
            recovery.tuples_replayed as f64,
        ];
        if timings {
            row.push(recovery.recovery_secs * 1e3);
        }
        large.row(row);
        job.shutdown();
    }
    let _ = std::fs::remove_dir_all(&spill_root);
    assert_eq!(
        totals[0], totals[1],
        "full and incremental modes disagree on the counted tuples"
    );
    assert!(
        steady_captures[1] * 4 < steady_captures[0],
        "incremental capture ({}) is not O(changed state) vs full ({})",
        steady_captures[1],
        steady_captures[0]
    );
    large.print();
    println!(
        "summary: with ~1 MiB of mostly-cold state the incremental capture \
         costs a fraction of the full snapshot and recovery ships only the \
         hot groups — the cold ones fault in lazily from the spill tier\n"
    );
    vec![
        ("fig_recovery".into(), table),
        ("fig_recovery_large_state".into(), large),
    ]
}
