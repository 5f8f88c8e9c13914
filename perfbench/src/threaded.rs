//! The threaded workloads: one generator thread (the benchmark's main thread)
//! feeding a `source → sink` job on the real runtime.
//!
//! Every run follows the same schedule:
//!
//! 1. **set-up**, several times: build the job (spawning daemons and
//!    completing HELLO/INIT on UDS), then a warm-up pass that creates every
//!    key group's state, and settle. Input generation is excluded.
//! 2. **closed-loop periods**: inject a fixed-size input as fast as
//!    backpressure admits and settle — one throughput sample — then one
//!    adaptation round (`Job::step`).
//! 3. **paced periods**: an open loop at a fixed offered rate. The
//!    generator keeps a due-time schedule across periods and stamps every
//!    k-th tuple with its *due* time, so time the generator spends blocked
//!    (settling, in a round, in a recovery or under backpressure) counts
//!    as latency. Each period settles, then runs one adaptation round;
//!    these rounds are the round and recovery samples.
//!
//! Every round thus starts on a settled data plane, so its time is the
//! control loop's own. Scripted kills (rebalance only) land after a
//! period's input and before its round; the round that repairs one is a
//! recovery sample, not a round sample, and a replacement worker joins
//! after it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use albic::core::albic::{Albic, AlbicConfig};
use albic::core::framework::AdaptationFramework;
use albic::core::job::{Job, Policy, SourceInjector};
use albic::core::scaling::ThresholdScaling;
use albic::engine::checkpoint::CheckpointMode;
use albic::engine::operator::Identity;
use albic::engine::reconfig::NoopPolicy;
use albic::engine::runtime::Runtime;
use albic::engine::tuple::{Tuple, Value};
use albic::engine::{PeriodRecord, ReconfigMode, ReconfigPolicy};
use albic::milp::MigrationBudget;
use albic::types::KeyGroupId;
use albic::{NetConfig, TransportOptions};

use crate::sink::{Histogram, LatencySink, SinkState};
use crate::trace::{traced_step, TimedAllocator, Tracer};
use crate::util::{child_pids, median, peak_rss_mib, quantile, wall_ns, Outcome, Rng};
use crate::Args;

/// Tuples per `inject` call in the closed loop; the most the paced
/// generator hands over in one call.
const BATCH: usize = 4096;
/// Fewest closed-loop periods (throughput samples) in a run.
const MIN_CLOSED: usize = 20;
/// Fewest paced periods in a run: enough healthy rounds for a p90 with a
/// kill every sixth period, and twenty repairs for the recovery median.
const MIN_PACED: usize = 130;
/// Set-ups per job; `setup_s` is the median over all of a run's.
const SETUPS: usize = 8;

/// One threaded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ingest` / `ingest_uds`: uniform random keys through
    /// `Identity → sink` on 2 workers, `Policy::noop()`, no checkpoints.
    ///
    /// Why: the data plane (`runtime` injector and workers, `chunk`
    /// bucketing) does almost all the work; controller, migration and
    /// checkpoint do none, so changes there should read as no change
    /// here. `ingest_uds` runs the identical job over `NetTransport` UDS
    /// with 2 daemons, adding the `transport` path (codec, session, star
    /// relay, socket): a transport change must move it and leave `ingest`
    /// flat.
    Ingest { uds: bool },
    /// `rebalance`: the paper's integrated loop on real threads — 2
    /// workers, epoch-aligned reconfiguration, ALBIC with a budget and
    /// threshold scaling, a collocatable same-key edge into a padded sink,
    /// Zipf keys whose hot set moves every period, incremental checkpoints
    /// every period with a spill tier, and a scripted worker kill every
    /// few periods with a replacement joining after the repair.
    ///
    /// Why: balance, collocation, scaling and recovery all go through one
    /// install path. Controller, migration, checkpoint and recovery do
    /// most of the work; the data plane is light.
    Rebalance,
}

/// The numbers of a workload's schedule.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Key groups per operator.
    groups: u32,
    closed_tuples: usize,
    /// Closed-loop periods per second of `--seconds`.
    closed_per_second: f64,
    /// Offered rate of the paced phase, tuples/s. A constant of the
    /// workload, never derived from a measured rate.
    paced_rate: f64,
    paced_tuples: usize,
    /// Paced periods per second of `--seconds`.
    paced_per_second: f64,
    /// Stamp every `stamp_every`-th paced tuple.
    stamp_every: u64,
}

const INGEST: Schedule = Schedule {
    groups: 16,
    closed_tuples: 256 * 1024,
    closed_per_second: 8.0,
    paced_rate: 2.5e6,
    paced_tuples: 64 * 1024,
    paced_per_second: 23.0,
    stamp_every: 128,
};

const INGEST_UDS: Schedule = Schedule {
    closed_per_second: 7.0,
    paced_rate: 2.0e6,
    paced_per_second: 18.0,
    ..INGEST
};

const REBALANCE: Schedule = Schedule {
    groups: 32,
    closed_tuples: 8 * 1024,
    closed_per_second: 40.0,
    paced_rate: 1.0e6,
    paced_tuples: 8 * 1024,
    paced_per_second: 40.0,
    stamp_every: 8,
};

/// `rebalance`: ALBIC's per-round migration budget.
const BUDGET: usize = 4;
/// `rebalance`: a worker is killed after every `KILL_EVERY`-th period's
/// input.
const KILL_EVERY: usize = 6;
/// `rebalance`: threshold scaling band `[low, high]` and target, in
/// percent load. Both phases load two nodes to about 41 % each, inside the
/// band; a kill leaves one survivor at about 82 %, so the repairing round
/// scales out (the integrated replan places groups on the node it
/// acquires), the scripted replacement then joins, and the next round
/// scales in by marking the least-loaded node — the empty replacement —
/// which the round after terminates.
const SCALING: (f64, f64, f64) = (30.0, 75.0, 60.0);

/// The `rebalance` scaling policy: no cooldown, so it can scale in the
/// round after it scaled out.
fn scaling() -> ThresholdScaling {
    let (low, high, target) = SCALING;
    let mut scaling = ThresholdScaling::new(low, high, target);
    scaling.cooldown = 0;
    scaling
}

impl Workload {
    fn schedule(self) -> Schedule {
        match self {
            Workload::Ingest { uds: false } => INGEST,
            Workload::Ingest { uds: true } => INGEST_UDS,
            Workload::Rebalance => REBALANCE,
        }
    }

    fn uds(self) -> bool {
        self == Workload::Ingest { uds: true }
    }

    /// Whether a scripted kill lands after period `p`'s input.
    fn kills_after(self, p: usize) -> bool {
        self == Workload::Rebalance && p % KILL_EVERY == KILL_EVERY - 1
    }

    /// Closed and paced periods of a run of `seconds`: never so few that
    /// a reported percentile has fewer than ten samples beyond it.
    fn periods(self, seconds: u64) -> (usize, usize) {
        let (s, sched) = (seconds as f64, self.schedule());
        (
            ((s * sched.closed_per_second).ceil() as usize).max(MIN_CLOSED),
            ((s * sched.paced_per_second).ceil() as usize).max(MIN_PACED),
        )
    }
}

/// The pre-generated input: keys only — tuples are assembled as they are
/// injected, which costs the same on every commit.
enum Input {
    /// A pool of random keys the run cycles through.
    Uniform { pool: Vec<u64> },
    /// Every period's key ids, back to back.
    Zipf {
        ids: Vec<u16>,
        period_start: Vec<usize>,
    },
}

impl Input {
    /// `ingest`: uniform random 64-bit keys. `rebalance`: Zipf-skewed
    /// keys over the ids of a window of half the key groups; the ranks map
    /// to ids through a seeded permutation shifted every period, so the hot
    /// set lands on different key groups each period, and the window
    /// slides by one group a period.
    fn generate(workload: Workload, seed: u64, periods: (usize, usize)) -> Input {
        let mut rng = Rng::new(seed);
        let sched = workload.schedule();
        match workload {
            Workload::Ingest { .. } => Input::Uniform {
                pool: (0..1 << 20).map(|_| rng.next_u64()).collect(),
            },
            Workload::Rebalance => {
                let groups = sched.groups as usize;
                let window = groups / 2;
                // Ranks over the ids of one window: 8 ids per active group.
                let n = window * 8;
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                // Zipf(1.1) cumulative weights over the ranks.
                let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-1.1)).collect();
                for i in 1..n {
                    cdf[i] += cdf[i - 1];
                }
                let total = cdf[n - 1];
                let (closed, paced) = periods;
                let mut ids = Vec::new();
                let mut period_start = Vec::new();
                for p in 0..closed + paced {
                    period_start.push(ids.len());
                    let len = if p < closed {
                        sched.closed_tuples
                    } else {
                        sched.paced_tuples
                    };
                    for _ in 0..len {
                        let u = rng.next_f64() * total;
                        let rank = cdf.partition_point(|&c| c < u).min(n - 1);
                        // The rank → id map shifts every period (the hot set
                        // moves), and the active window of groups slides by
                        // one group a period, so each group idles long enough
                        // to go cold and spill, then faults back in.
                        let local = perm[(rank + 7 * p) % n];
                        let group = (p + local % window) % groups;
                        ids.push((group + groups * (local / window)) as u16);
                    }
                }
                Input::Zipf { ids, period_start }
            }
        }
    }

    /// Key of tuple `i` of period `p`; `global` counts tuples over the
    /// whole run, for the cycling uniform pool.
    fn key(&self, p: usize, i: usize, global: u64) -> u64 {
        match self {
            Input::Uniform { pool, .. } => pool[global as usize & (pool.len() - 1)],
            Input::Zipf {
                ids, period_start, ..
            } => u64::from(ids[period_start[p] + i]),
        }
    }
}

/// A scratch directory unique to one job instance, removed on drop: its
/// name carries the process id and a per-process sequence number, so
/// concurrent runs and successive jobs never share spill files.
struct Scratch(PathBuf);

impl Scratch {
    fn new(root: &Path) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("job-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory in the work dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn albic_config() -> AlbicConfig {
    AlbicConfig {
        budget: MigrationBudget::Count(BUDGET),
        ..Default::default()
    }
}

/// Build one job instance. The scratch directory holds its spill files
/// and (on UDS) its socket.
fn build(workload: Workload, args: &Args, traced: bool) -> (Job<Runtime>, Scratch) {
    let scratch = Scratch::new(&args.work_dir);
    let rebalance = workload == Workload::Rebalance;
    let sink = if rebalance {
        LatencySink::padded()
    } else {
        LatencySink::plain()
    };
    let policy = if rebalance && !traced {
        Policy::albic_config(albic_config()).with_scaling_policy(scaling())
    } else {
        Policy::noop()
    };
    let groups = workload.schedule().groups;
    let mut builder = Job::builder()
        .source("src", groups, Identity)
        .operator("sink", groups, sink)
        .edge("src", "sink")
        .nodes(2)
        .policy(policy);
    if rebalance {
        builder = builder
            .reconfig_mode(ReconfigMode::Epoch)
            .checkpoint_interval(1)
            .checkpoint_mode(CheckpointMode::Incremental)
            .spill_dir(scratch.0.join("spill"))
            .cold_after(3);
    }
    if workload.uds() {
        let worker = std::env::current_exe()
            .expect("own executable path")
            .with_file_name("perfbench-worker");
        let socket = scratch.0.join("s.sock");
        builder = builder.transport(TransportOptions::Net(
            NetConfig::uds(worker).listen_on(socket.to_string_lossy()),
        ));
    }
    (
        builder.build_threaded().expect("valid threaded job"),
        scratch,
    )
}

/// The policy the traced run drives by hand: the same stack the preset
/// resolves to, with the allocator wrapped for timing.
fn traced_policy(
    workload: Workload,
    job: &Job<Runtime>,
    tracer: &Tracer,
) -> Box<dyn ReconfigPolicy> {
    match workload {
        Workload::Rebalance => {
            let downstream = job.engine().topology().downstream_group_counts();
            Box::new(AdaptationFramework::with_scaling(
                TimedAllocator::new(Albic::new(albic_config(), downstream), tracer.clone()),
                scaling(),
            ))
        }
        Workload::Ingest { .. } => Box::new(NoopPolicy),
    }
}

fn tuple(key: u64, seq: u64, ts: u64) -> Tuple {
    Tuple::raw(key, Value::Int(seq as i64), ts)
}

/// One `inject` call, traced as a span when tracing.
fn inject(
    injector: &SourceInjector,
    tracer: Option<&Tracer>,
    span: &'static str,
    tuples: impl Iterator<Item = Tuple>,
) {
    match tracer {
        Some(t) => t.span(span, || injector.inject(tuples)),
        None => injector.inject(tuples),
    }
}

/// Settle the data plane, traced as span `name`.
fn drain(job: &mut Job<Runtime>, tracer: Option<&Tracer>, name: &'static str) {
    match tracer {
        Some(t) => t.span(name, || job.settle()),
        None => job.settle(),
    }
}

/// Everything a run accumulates over its jobs.
#[derive(Default)]
struct Acc {
    setup: Vec<f64>,
    build_ms: Vec<f64>,
    round_ms: Vec<f64>,
    /// Trace round ids of the `round_ms` samples.
    sampled_rounds: Vec<u64>,
    recovery_ms: Vec<f64>,
    repair_rounds: Vec<u64>,
    throughput: Vec<f64>,
    closed_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    latency: Histogram,
    /// Each job's own p99 event latency.
    job_p99_ms: Vec<f64>,
    history: Vec<PeriodRecord>,
    injected: u64,
    planned: u64,
    failed_migrations: u64,
    failed_tuples: u64,
    nodes_added: u64,
    nodes_marked: u64,
    moves: Vec<(u32, u32, u32)>,
    peak_rss: f64,
    daemon_rss: f64,
}

/// Jobs per run: each is set up afresh and runs an equal share of the
/// schedule, so no one set of worker threads sets the run's figures.
const JOBS: usize = 8;

pub fn run(args: &Args, workload: Workload, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (closed, paced) = workload.periods(args.seconds);
    let share = (closed.div_ceil(JOBS), paced.div_ceil(JOBS));
    let mut acc = Acc::default();
    for i in 0..JOBS {
        let seed = Rng::new(args.seed.wrapping_mul(0x100_0000_01B3) ^ i as u64).next_u64();
        let offset = (i * (share.0 + share.1)) as u64;
        run_job(
            args, workload, tracer, seed, share, offset, &mut acc, &mut out,
        );
    }
    report(workload, tracer, acc, &mut out);
    out
}

/// Set up one job and drive it through `closed` + `paced` periods; round
/// ids in the trace start at `offset`.
#[allow(clippy::too_many_arguments)]
fn run_job(
    args: &Args,
    workload: Workload,
    tracer: Option<&Tracer>,
    seed: u64,
    (closed, paced): (usize, usize),
    offset: u64,
    acc: &mut Acc,
    out: &mut Outcome,
) {
    let input = Input::generate(workload, seed, (closed, paced));
    let sched = workload.schedule();
    let warmup = u64::from(sched.groups) * 8;

    // 1. Set-up, several times; the last instance is measured.
    let mut kept = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (mut job, scratch) = build(workload, args, tracer.is_some());
        acc.build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // Keys `0..8·groups` give every key group of both operators state.
        job.injector("src")
            .inject((0..warmup).map(|k| tuple(k, 0, 0)));
        job.settle();
        acc.setup.push(t0.elapsed().as_secs_f64());
        if let Some((old, old_scratch)) = kept.replace((job, scratch)) {
            Job::shutdown(old);
            drop(old_scratch);
        }
    }
    let (mut job, scratch) = kept.expect("at least one set-up");
    let injector = job.injector("src");
    let mut policy = tracer.map(|t| traced_policy(workload, &job, t));

    let mut injected = warmup;
    let mut stamped = 0u64;
    let (mut kills, mut repairs, mut truncated) = (0usize, 0usize, 0u64);
    let ns_per_tuple = 1e9 / sched.paced_rate;
    let mut anchor: Option<(Instant, u64)> = None;
    let mut paced_sent = 0u64;

    for p in 0..closed + paced {
        if let Some(t) = tracer {
            t.set_round(offset + p as u64);
        }
        if p < closed {
            // 2. Closed loop: as fast as backpressure admits, then settle.
            let t0 = Instant::now();
            for start in (0..sched.closed_tuples).step_by(BATCH) {
                let end = (start + BATCH).min(sched.closed_tuples);
                let base = injected;
                inject(
                    &injector,
                    tracer,
                    "inject_closed",
                    (start..end).map(|i| {
                        let g = base + (i - start) as u64;
                        tuple(input.key(p, i, g), g, 0)
                    }),
                );
                injected += (end - start) as u64;
            }
            drain(&mut job, tracer, "drain_closed");
            let dt = t0.elapsed().as_secs_f64();
            acc.closed_ms.push(dt * 1e3);
            acc.throughput.push(sched.closed_tuples as f64 / dt);
        } else {
            // 3. Open loop on one continuous due-time schedule.
            let (origin, origin_wall) = *anchor.get_or_insert_with(|| (Instant::now(), wall_ns()));
            let first = paced_sent;
            let end = paced_sent + sched.paced_tuples as u64;
            while paced_sent < end {
                let elapsed = origin.elapsed().as_nanos() as f64;
                let due = ((elapsed / ns_per_tuple) as u64 + 1).min(end);
                if due > paced_sent {
                    let hi = due.min(paced_sent + BATCH as u64);
                    let now = wall_ns();
                    let (lo, base) = (paced_sent, injected);
                    let due_ns = |i: u64| origin_wall + (i as f64 * ns_per_tuple) as u64;
                    for i in (lo.div_ceil(sched.stamp_every) * sched.stamp_every..hi)
                        .step_by(sched.stamp_every as usize)
                    {
                        acc.lag_ms.push(now.saturating_sub(due_ns(i)) as f64 / 1e6);
                        stamped += 1;
                    }
                    let stamp_every = sched.stamp_every;
                    inject(
                        &injector,
                        tracer,
                        "inject",
                        (lo..hi).map(|i| {
                            let ts = if i % stamp_every == 0 { due_ns(i) } else { 0 };
                            tuple(input.key(p, (i - first) as usize, i), base + i - lo, ts)
                        }),
                    );
                    injected += hi - lo;
                    paced_sent = hi;
                } else {
                    let wait = paced_sent as f64 * ns_per_tuple - elapsed;
                    if wait > 150_000.0 {
                        std::thread::sleep(Duration::from_nanos((wait - 100_000.0) as u64));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
            // Drain the period's in-flight tail before the round, so every
            // round runs on a settled data plane.
            drain(&mut job, tracer, "drain");
        }

        // A scripted kill lands after the period's input, before its round.
        if workload.kills_after(p) {
            let mut alive: Vec<_> = job.cluster().alive().map(|n| n.id).collect();
            alive.sort_unstable();
            let victim = alive[kills % alive.len()];
            let killed = match tracer {
                Some(t) => t.span("kill", || job.engine_mut().inject_fault(victim)),
                None => job.engine_mut().inject_fault(victim),
            };
            out.check(killed, || {
                format!("the scripted kill of {victim} did not land")
            });
            kills += 1;
        }

        let t0 = Instant::now();
        let (recovery, planned, apply) = match (tracer, policy.as_mut()) {
            (Some(t), Some(policy)) => {
                let r = traced_step(job.engine_mut(), policy.as_mut(), t);
                (r.recovery, r.plan.migrations.len(), r.apply)
            }
            _ => {
                let r = job.step();
                (r.recovery, r.plan.migrations.len(), r.apply)
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        acc.planned += planned as u64;
        acc.failed_migrations += apply.failed.len() as u64;
        acc.nodes_added += apply.added.len() as u64;
        acc.nodes_marked += apply.marked.len() as u64;
        truncated += recovery.log_truncated;
        acc.moves.extend(
            apply
                .migrations
                .iter()
                .map(|m| (m.group.raw(), m.from.raw(), m.to.raw())),
        );
        if recovery.recovered() {
            repairs += 1;
            acc.repair_rounds.push(offset + p as u64);
            if p >= closed {
                acc.recovery_ms.push(ms);
            }
            // The replacement joins after the repairing round.
            match tracer {
                Some(t) => t.span("add_worker", || job.engine_mut().add_worker(1.0)),
                None => job.engine_mut().add_worker(1.0),
            };
        } else if p >= closed {
            acc.round_ms.push(ms);
            acc.sampled_rounds.push(offset + p as u64);
        }
    }

    acc.peak_rss = acc
        .peak_rss
        .max(peak_rss_mib(std::process::id()).unwrap_or(f64::NAN));
    if workload.uds() {
        let daemon = child_pids()
            .into_iter()
            .filter_map(peak_rss_mib)
            .fold(0.0, f64::max);
        acc.daemon_rss = acc.daemon_rss.max(daemon);
    }

    // Correctness gate: every injected tuple counted exactly once by the
    // sink — across migrations, kills and replays — and every stamp seen.
    job.settle();
    let topology = job.engine().topology().clone();
    let sink_op = topology.operator_by_name("sink").expect("sink operator");
    let mut counted = 0u64;
    let mut latency = Histogram::default();
    let mut unreadable = 0;
    for g in topology.groups_of(sink_op) {
        match job
            .engine()
            .probe_state(KeyGroupId::new(g))
            .and_then(|b| SinkState::decode(&b))
        {
            Some(s) => {
                counted += s.count;
                latency.merge(&s.latency);
            }
            None => unreadable += 1,
        }
    }
    let history = job.history().to_vec();
    let dropped_so_far = injector.dropped_so_far();
    Job::shutdown(job);
    drop(scratch);

    let dropped_periods: f64 = history.iter().map(|r| r.dropped_tuples).sum();
    acc.failed_tuples += (dropped_periods as u64).max(dropped_so_far + truncated);
    out.check(unreadable == 0, || {
        format!("{unreadable} sink groups had no readable state")
    });
    out.check(counted == injected, || {
        format!("sink counted {counted} tuples, {injected} were injected")
    });
    out.check(latency.total() == stamped, || {
        format!("sink saw {} stamps, {stamped} were sent", latency.total())
    });
    out.check(kills == repairs, || {
        format!("{kills} kills but {repairs} repairs")
    });
    if let Some(p99) = latency.quantile_ms(0.99) {
        acc.job_p99_ms.push(p99);
    }
    acc.latency.merge(&latency);
    acc.injected += injected;
    acc.history.extend(history);
}

/// The run's metrics from everything its jobs accumulated.
fn report(workload: Workload, tracer: Option<&Tracer>, acc: Acc, out: &mut Outcome) {
    out.attempted = acc.injected + acc.planned;
    out.failed = acc.failed_tuples + acc.failed_migrations;
    let nan = f64::NAN;
    let history = &acc.history;
    let n = history.len() as f64;
    let sum = |f: fn(&PeriodRecord) -> f64| history.iter().map(f).sum::<f64>();
    let max = |f: fn(&PeriodRecord) -> f64| history.iter().map(f).fold(0.0, f64::max);
    let q = |v: &[f64], q: f64| quantile(v, q).unwrap_or(nan);

    out.metric("setup_s", median(&acc.setup), "s");
    for (name, p) in [
        ("round_ms_p50", 0.5),
        ("round_ms_p75", 0.75),
        ("round_ms_p90", 0.9),
    ] {
        out.metric(name, q(&acc.round_ms, p), "ms");
    }
    out.metric("peak_rss_mb", acc.peak_rss, "MiB");
    out.metric("throughput_tps", q(&acc.throughput, 0.5), "1/s");
    out.metric(
        "latency_p50_ms",
        acc.latency.quantile_ms(0.5).unwrap_or(nan),
        "ms",
    );
    // The median of the jobs' p99s: one job's stretch of a busy machine
    // does not set the run's tail.
    let p99 = if acc.job_p99_ms.len() == JOBS {
        median(&acc.job_p99_ms)
    } else {
        nan
    };
    out.metric("latency_p99_ms", p99, "ms");
    if !acc.recovery_ms.is_empty() {
        out.metric("recovery_ms_p50", median(&acc.recovery_ms), "ms");
    }
    out.metric("load_distance", sum(|r| r.load_distance) / n, "pp");
    out.metric("collocation_pct", sum(|r| r.collocation_factor) / n, "%");
    out.metric("migrations", sum(|r| r.migrations as f64), "count");
    out.metric("nodes_mean", sum(|r| r.num_nodes as f64) / n, "count");

    // Layer counts, available untraced too.
    out.metric("runtime.dropped_tuples", acc.failed_tuples as f64, "count");
    if let Some(v) = quantile(&acc.lag_ms, 0.99) {
        out.metric("gen.lag_ms_p99", v, "ms");
    }
    out.metric("transport.build_ms", median(&acc.build_ms), "ms");
    if workload.uds() {
        out.metric("transport.daemon_rss_mb", acc.daemon_rss, "MiB");
    }
    out.metric("migration.count", acc.moves.len() as f64, "count");
    out.metric(
        "migration.state_bytes",
        sum(|r| r.migration_state_bytes as f64),
        "B",
    );
    out.metric("migration.failed", acc.failed_migrations as f64, "count");
    out.metric("scaling.nodes_added", acc.nodes_added as f64, "count");
    out.metric("scaling.nodes_marked", acc.nodes_marked as f64, "count");
    out.metric("checkpoint.bytes", sum(|r| r.checkpoint_bytes as f64), "B");
    out.metric(
        "checkpoint.delta_bytes_max",
        max(|r| r.delta_bytes as f64),
        "B",
    );
    out.metric(
        "checkpoint.spilled_groups_max",
        max(|r| r.spilled_groups as f64),
        "count",
    );
    out.metric(
        "recovery.tuples_replayed",
        sum(|r| r.tuples_replayed),
        "count",
    );
    out.metric(
        "recovery.groups_restored",
        sum(|r| r.groups_restored as f64),
        "count",
    );

    if let Some(t) = tracer {
        crate::layer_metrics(out, t, &acc.sampled_rounds, &acc.repair_rounds);
        let busy: f64 = t.durations("inject_closed").iter().sum();
        let total: f64 = acc.closed_ms.iter().sum();
        if total > 0.0 {
            out.metric("runtime.inject_busy_share", busy / total, "ratio");
        }
        let calls: Vec<f64> = t.durations("inject").iter().map(|ms| ms * 1e3).collect();
        for (name, q) in [
            ("runtime.inject_call_us_p50", 0.5),
            ("runtime.inject_call_us_p99", 0.99),
        ] {
            if let Some(v) = quantile(&calls, q) {
                out.metric(name, v, "us");
            }
        }
    }
    out.moves = acc.moves;
}
