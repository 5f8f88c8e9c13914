//! Deterministic fault injection against the threaded runtime: a scripted
//! worker kill during sustained load must lose no key group, and the
//! recovered counter states must be bit-equal to a fault-free oracle run
//! of the same schedule (exactly-once across recovery). Recovery shares
//! the migration machinery — checkpointed state comes back through the
//! same install path, re-homing goes through the routing table — so these
//! tests are also the proof of the paper's integrative thesis extended to
//! fault tolerance.

use albic::engine::checkpoint::CheckpointMode;
use albic::engine::fault::{FaultInjector, FaultPlan};
use albic::engine::operator::{Counting, Identity};
use albic::engine::tuple::{Tuple, Value};
use albic::engine::{Migration, PeriodRecord, ReconfigMode, ReconfigPlan, Runtime, RuntimeConfig};
use albic::job::{Job, JobBuilder, Policy};
use albic::types::{KeyGroupId, NodeId};

const KEYS: u64 = 24;
const PERIODS: u64 = 5;
const NODES: usize = 4;

/// Deterministic skewed per-key tuple counts for one period.
fn tuples_of(key: u64, period: u64) -> u64 {
    2 + (key * 5 + period * 3) % 11
}

/// Checkpoint mode the suite runs under: `ALBIC_TEST_CHECKPOINT_MODE=
/// incremental` switches every `run_cfg`-based scenario to the
/// incremental store (CI runs the suite once per mode — the exactly-once
/// guarantees must hold identically in both).
fn ambient_mode() -> CheckpointMode {
    match std::env::var("ALBIC_TEST_CHECKPOINT_MODE").as_deref() {
        Ok("incremental") => CheckpointMode::Incremental,
        _ => CheckpointMode::Full,
    }
}

/// A fresh per-test spill directory under the system temp dir.
fn spill_tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("albic-fi-spill-{}-{tag}", std::process::id()))
}

/// Run the standard 4-worker pipeline for `periods` periods under the
/// given fault plan, with `tuples(key, period)` describing the injection
/// schedule and `configure` customizing the job (checkpoint interval,
/// mode, spill tier, ...); returns the per-group final counter states and
/// the metric history.
fn run_cfg(
    plan: FaultPlan,
    periods: u64,
    tuples: impl Fn(u64, u64) -> u64,
    configure: impl FnOnce(JobBuilder) -> JobBuilder,
) -> (Vec<u64>, Vec<PeriodRecord>) {
    let (counts, job) = drive(plan, periods, tuples, configure, |_| {});
    let history = job.history().to_vec();
    job.shutdown();
    (counts, history)
}

/// The body of [`run_cfg`], calling `before_period(p)` ahead of each
/// period's faults and input, and handing back the still-running job
/// with the final counts.
fn drive(
    plan: FaultPlan,
    periods: u64,
    tuples: impl Fn(u64, u64) -> u64,
    configure: impl FnOnce(JobBuilder) -> JobBuilder,
    mut before_period: impl FnMut(u64),
) -> (Vec<u64>, Job<Runtime>) {
    let base = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(NODES)
        .checkpoint_interval(1)
        .checkpoint_mode(ambient_mode())
        .policy(Policy::noop());
    let mut job = configure(base).build_threaded().expect("valid job spec");
    let mut faults = FaultInjector::new(plan);
    for p in 0..periods {
        before_period(p);
        let killed = faults.advance(job.engine_mut());
        for v in &killed {
            assert!(job.cluster().get(*v).is_some(), "victim existed pre-step");
        }
        for k in 0..KEYS {
            let n = tuples(k, p);
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert_eq!(
            report.recovery.failed.len(),
            killed.len(),
            "period {p}: every scripted kill must be recovered in its step"
        );
        assert!(report.apply.failed.is_empty());
    }
    job.settle();
    let counts = final_counts(job.engine());
    (counts, job)
}

/// [`run_cfg`] with the default schedule and configuration.
fn run(plan: FaultPlan) -> (Vec<u64>, Vec<PeriodRecord>) {
    run_cfg(plan, PERIODS, tuples_of, |b| b)
}

/// The per-group u64 counter states (0 for stateless/untouched groups).
fn final_counts(rt: &Runtime) -> Vec<u64> {
    let cnt = rt.topology().operator_by_name("count").unwrap();
    (0..rt.topology().num_key_groups())
        .map(|g| {
            let kg = KeyGroupId::new(g);
            if rt.topology().operator_of_group(kg) != cnt {
                return 0;
            }
            rt.probe_state(kg)
                .map(|b| {
                    let mut arr = [0u8; 8];
                    arr.copy_from_slice(&b[..8]);
                    u64::from_le_bytes(arr)
                })
                .unwrap_or(0)
        })
        .collect()
}

#[test]
fn scripted_kill_of_one_of_four_workers_is_exactly_once() {
    let (oracle, oracle_history) = run(FaultPlan::new());
    let (counts, history) = run(FaultPlan::new().kill(2, NodeId::new(1)));

    // No key group lost, counter states bit-equal to the fault-free run.
    assert_eq!(counts, oracle, "recovered states diverge from the oracle");
    let total: u64 = (0..PERIODS)
        .flat_map(|p| (0..KEYS).map(move |k| tuples_of(k, p)))
        .sum();
    assert_eq!(counts.iter().sum::<u64>(), total, "arithmetic ground truth");

    // Nothing was dropped on the way — recovery, not loss.
    for rec in &history {
        assert_eq!(rec.dropped_tuples, 0.0, "period {}", rec.period);
    }
    // Recovery accounting is surfaced in the period the kill hit.
    let rec = &history[2];
    assert_eq!(rec.failed_nodes, 1);
    assert!(rec.groups_restored > 0, "the victim hosted groups");
    assert!(
        rec.tuples_replayed > 0.0,
        "the post-checkpoint delta was replayed"
    );
    assert!(rec.recovery_secs > 0.0);
    assert_eq!(rec.num_nodes, NODES - 1, "the corpse left the cluster");
    // Healthy periods carry zeroed recovery accounting.
    assert_eq!(history[1].failed_nodes, 0);
    assert_eq!(history[1].tuples_replayed, 0.0);
    for rec in &oracle_history {
        assert_eq!((rec.failed_nodes, rec.groups_restored), (0, 0));
    }
}

#[test]
fn kill_with_tuples_in_flight_is_exactly_once() {
    // The scripted injector kills at step boundaries; this variant kills
    // *after* injection, while the period's tuples are still queued in
    // worker channels — the batches parked in the victim's inbox die with
    // it and must come back via the replay log.
    let (oracle, _) = run(FaultPlan::new());
    let mut job = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(NODES)
        .checkpoint_interval(1)
        .checkpoint_mode(ambient_mode())
        .policy(Policy::noop())
        .build_threaded()
        .expect("valid job spec");
    for p in 0..PERIODS {
        for k in 0..KEYS {
            let n = tuples_of(k, p);
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        if p == 2 {
            assert!(job.engine_mut().inject_fault(NodeId::new(2)));
        }
        let report = job.step();
        if p == 2 {
            assert_eq!(report.recovery.failed, vec![NodeId::new(2)]);
            assert!(report.recovery.tuples_replayed > 0);
        }
    }
    job.settle();
    let counts = final_counts(job.engine());
    assert_eq!(counts, oracle, "in-flight tuples were lost or doubled");
    assert_eq!(job.cluster().len(), NODES - 1);
    job.shutdown();
}

#[test]
fn simultaneous_double_kill_is_exactly_once() {
    let (oracle, _) = run(FaultPlan::new());
    let (counts, history) = run(FaultPlan::new()
        .kill(1, NodeId::new(0))
        .kill(1, NodeId::new(3)));
    assert_eq!(counts, oracle);
    assert_eq!(history[1].failed_nodes, 2);
    assert_eq!(history.last().unwrap().num_nodes, NODES - 2);
}

#[test]
fn second_kill_after_recovery_rehits_the_recovered_groups() {
    // The second victim hosts groups the first recovery re-homed onto it
    // (round-robin over sorted survivors puts node 1's lost groups on
    // nodes 0 and 2) — recovering already-recovered state must still be
    // exactly-once.
    let (oracle, _) = run(FaultPlan::new());
    let (counts, history) = run(FaultPlan::new()
        .kill(1, NodeId::new(1))
        .kill(2, NodeId::new(2)));
    assert_eq!(counts, oracle, "re-recovered states diverge from oracle");
    assert_eq!(history[1].failed_nodes, 1);
    assert_eq!(history[2].failed_nodes, 1);
    assert_eq!(history.last().unwrap().num_nodes, NODES - 2);
    for rec in &history {
        assert_eq!(rec.dropped_tuples, 0.0, "period {}", rec.period);
    }
}

#[test]
fn kill_before_the_first_checkpoint_replays_from_the_start() {
    // A fault at step 0 hits before any checkpoint exists: recovery rolls
    // back to the implicit empty initial checkpoint and replays the whole
    // log — still exactly-once.
    let (oracle, _) = run(FaultPlan::new());
    let (counts, history) = run(FaultPlan::new().kill(0, NodeId::new(1)));
    assert_eq!(counts, oracle);
    assert_eq!(history[0].failed_nodes, 1);
}

#[test]
fn concurrent_producers_racing_a_kill_lose_nothing() {
    // Producer threads stream through cloned injectors while a worker is
    // killed and recovered underneath them. The injection fence makes
    // each producer call atomic w.r.t. the rollback — a tuple is either
    // fully pre-rollback (logged, rolled back, replayed: counted once)
    // or fully post-recovery (counted once) — so the final counter total
    // must equal everything produced, exactly once.
    const PRODUCERS: i64 = 3;
    const PER_PRODUCER: i64 = 400;
    let mut job = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(3)
        .checkpoint_interval(1)
        .checkpoint_mode(ambient_mode())
        .policy(Policy::noop())
        .build_threaded()
        .expect("valid job spec");
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let inj = job.injector("events");
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    inj.inject([Tuple::keyed(
                        &((t * PER_PRODUCER + i) % 16),
                        Value::Int(i),
                        i as u64,
                    )]);
                }
            })
        })
        .collect();
    // Kill a worker while the producers are mid-stream, then recover.
    std::thread::sleep(std::time::Duration::from_millis(2));
    assert!(job.engine_mut().inject_fault(NodeId::new(1)));
    let report = job.step();
    assert_eq!(report.recovery.failed, vec![NodeId::new(1)]);
    for h in handles {
        h.join().unwrap();
    }
    job.settle();
    let counts = final_counts(job.engine());
    assert_eq!(
        counts.iter().sum::<u64>(),
        (PRODUCERS * PER_PRODUCER) as u64,
        "every produced tuple counted exactly once across the recovery"
    );
    job.shutdown();
}

#[test]
fn policies_see_recovery_as_ordinary_reconfiguration_input() {
    // After a kill, a balancing policy keeps planning over the smaller
    // cluster — the post-recovery placement is ordinary statistics, and
    // its plan runs through the same executor recovery used.
    let mut job = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(3)
        .checkpoint_interval(1)
        .checkpoint_mode(ambient_mode())
        .policy(Policy::milp())
        .build_threaded()
        .expect("valid job spec");
    let mut faults = FaultInjector::new(FaultPlan::new().kill(2, NodeId::new(0)));
    for p in 0..4u64 {
        let _ = faults.advance(job.engine_mut());
        for k in 0..KEYS {
            job.inject(
                "events",
                (0..tuples_of(k, p)).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
    }
    assert_eq!(job.cluster().len(), 2);
    // Every group is routed to a live node and the engine still measures.
    let routing = job.engine().routing_snapshot();
    for (kg, node) in routing.iter() {
        assert!(
            job.cluster().get(node).is_some(),
            "group {kg:?} routed to dead node {node:?}"
        );
    }
    let stats = job.measure();
    assert_eq!(stats.dropped_tuples, 0.0);
    job.shutdown();
}

/// Scripted round of epoch migrations: rotate each group in `groups` to
/// `to`, skipping moves that are already home. Normalization happens here
/// so every apply sees a well-formed plan.
fn rotate_plan(rt: &Runtime, groups: &[u32], to: NodeId) -> ReconfigPlan {
    let routing = rt.routing_snapshot();
    let mut plan = ReconfigPlan::noop();
    for &g in groups {
        let kg = KeyGroupId::new(g);
        if routing.node_of(kg) != to {
            plan.migrations.push(Migration { group: kg, to });
        }
    }
    plan
}

#[test]
fn epoch_migrations_racing_producers_and_a_kill_stay_exactly_once() {
    // The epoch-mode stress scenario: producer threads stream through
    // cloned injectors (which also emit periodic no-op barrier waves, so
    // alignment is continuously exercised), while back-to-back epoch
    // migrations run underneath them and a worker is killed with a wave
    // in flight. Every wave must terminate — each move either installs or
    // aborts cleanly, never hangs — and the final counter total must
    // equal everything produced, exactly once across the recovery.
    const PRODUCERS: i64 = 3;
    const PER_PRODUCER: i64 = 400;
    let victim = NodeId::new(1);
    let mut job = Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(3)
        .checkpoint_interval(1)
        .checkpoint_mode(ambient_mode())
        .runtime_config(RuntimeConfig {
            batch_size: 8,
            channel_capacity: 64,
            barrier_interval: 64,
            ..RuntimeConfig::default()
        })
        .reconfig_mode(ReconfigMode::Epoch)
        .policy(Policy::noop())
        .build_threaded()
        .expect("valid job spec");
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let inj = job.injector("events");
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    inj.inject([Tuple::keyed(
                        &((t * PER_PRODUCER + i) % 16),
                        Value::Int(i),
                        i as u64,
                    )]);
                }
            })
        })
        .collect();
    // Back-to-back epoch waves while the producers are mid-stream; no
    // kill yet, so every move must land.
    for round in 0..3u32 {
        let to = NodeId::new(round % 3);
        let plan = rotate_plan(job.engine(), &[2, 7, 11], to);
        let report = job.apply(&plan);
        assert!(
            report.failed.is_empty(),
            "round {round}: healthy epoch wave must not abort: {:?}",
            report.failed
        );
    }
    // Kill a worker, then immediately launch another wave against the
    // corpse — one move targets the dead node outright. The wave must
    // abort cleanly per move (no hang, no ghost state), not stall on an
    // alignment that can never complete.
    assert!(job.engine_mut().inject_fault(victim));
    let plan = rotate_plan(job.engine(), &[2, 7, 11], victim);
    let report = job.apply(&plan);
    assert_eq!(
        report.migrations.len() + report.failed.len(),
        plan.migrations.len(),
        "every move of the racing wave terminated one way or the other"
    );
    let report = job.step();
    assert_eq!(report.recovery.failed, vec![victim]);
    for h in handles {
        h.join().unwrap();
    }
    // The epoch executor works again on the recovered two-node cluster.
    let plan = rotate_plan(job.engine(), &[2, 7, 11], NodeId::new(2));
    let report = job.apply(&plan);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    job.settle();
    let counts = final_counts(job.engine());
    assert_eq!(
        counts.iter().sum::<u64>(),
        (PRODUCERS * PER_PRODUCER) as u64,
        "every produced tuple counted exactly once across kill + waves"
    );
    let stats = job.measure();
    assert_eq!(stats.dropped_tuples, 0.0);
    job.shutdown();
}

#[test]
fn recovery_at_interval_four_keeps_stats_measurement_exact() {
    // Regression (stats exactness at checkpoint_interval > 1): replay-log
    // entries are tagged with the period they were measured in, so a
    // recovery at interval 4 re-injects prior-period entries *unmeasured*
    // (their statistics rewind with the checkpoint) and only the failed
    // period's own tail counts. Before the fix, every replayed tuple was
    // re-measured into the faulted period, inflating its load signals.
    let drive = |plan: FaultPlan| -> (Vec<u64>, Vec<f64>, Vec<PeriodRecord>) {
        let mut job = Job::builder()
            .source("events", 8, Identity)
            .operator("count", 8, Counting)
            .edge("events", "count")
            .nodes(NODES)
            .checkpoint_interval(4)
            .checkpoint_mode(ambient_mode())
            .policy(Policy::noop())
            .build_threaded()
            .expect("valid job spec");
        let mut faults = FaultInjector::new(plan);
        let mut totals = Vec::new();
        for p in 0..PERIODS {
            let _ = faults.advance(job.engine_mut());
            for k in 0..KEYS {
                job.inject(
                    "events",
                    (0..tuples_of(k, p)).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
                );
            }
            let report = job.step();
            totals.push(report.stats.total_tuples);
        }
        job.settle();
        let counts = final_counts(job.engine());
        let history = job.history().to_vec();
        job.shutdown();
        (counts, totals, history)
    };
    let (oracle_counts, oracle_totals, _) = drive(FaultPlan::new());
    // Step 2 is two periods past the last (implicit, empty) checkpoint:
    // recovery replays periods 0-1 unmeasured and period 2 measured.
    let (counts, totals, history) = drive(FaultPlan::new().kill(2, NodeId::new(1)));
    assert_eq!(counts, oracle_counts, "states diverge from the oracle");
    assert_eq!(
        totals, oracle_totals,
        "replayed prior-period work leaked into the measured statistics"
    );
    for rec in &history {
        assert_eq!(rec.dropped_tuples, 0.0, "period {}", rec.period);
    }
    assert_eq!(history[2].failed_nodes, 1);
}

#[test]
fn log_overflow_forces_an_early_checkpoint_instead_of_truncating() {
    // Regression (replay-log overflow): each period injects ~170 tuples
    // against a soft capacity of 100, and the scheduled capture is 8
    // periods away — every boundary must force an early capture (clearing
    // the log) instead of truncating, so a kill still recovers
    // exactly-once with nothing dropped.
    let cfg = |b: JobBuilder| b.checkpoint_interval(8).replay_log_capacity(100);
    let (oracle, _) = run_cfg(FaultPlan::new(), PERIODS, tuples_of, cfg);
    let (counts, history) = run_cfg(
        FaultPlan::new().kill(3, NodeId::new(1)),
        PERIODS,
        tuples_of,
        cfg,
    );
    assert_eq!(counts, oracle, "overflow recovery diverges from oracle");
    assert!(
        history
            .iter()
            .any(|r| (r.period + 1) % 8 != 0 && r.checkpoint_bytes > 0),
        "no off-schedule capture despite a continuously overflowing log"
    );
    for rec in &history {
        assert_eq!(rec.dropped_tuples, 0.0, "period {}", rec.period);
    }
}

#[test]
fn kill_after_compaction_restores_base_plus_deltas_exactly_once() {
    // Incremental mode at interval 1: the first capture is full, the next
    // ones are delta layers, and the layer stack compacts into the base
    // every DEFAULT_MAX_DELTA_LAYERS captures — a kill at step 6 restores
    // from a base that has absorbed at least one compaction plus the
    // layers on top of it.
    let cfg = |b: JobBuilder| b.checkpoint_mode(CheckpointMode::Incremental);
    let (oracle, _) = run_cfg(FaultPlan::new(), 7, tuples_of, cfg);
    let (counts, history) = run_cfg(FaultPlan::new().kill(6, NodeId::new(2)), 7, tuples_of, cfg);
    assert_eq!(counts, oracle, "post-compaction restore diverges");
    assert_eq!(history[6].failed_nodes, 1);
    // Every period captured (interval 1) and captures carry cost.
    assert!(history.iter().all(|r| r.checkpoint_bytes > 0));
}

#[test]
fn kill_with_spilled_groups_faults_cold_state_back_in() {
    // Warm every group in period 0, then starve most of them: with
    // cold_after = 2 the quiet groups spill to disk well before the kill
    // at step 5. Recovery ships only the hot set eagerly — the spilled
    // groups fault back in from their files on first access (the final
    // probe), and the result must still match the fault-free oracle.
    let skew = |k: u64, p: u64| {
        if p == 0 || k < 4 {
            tuples_of(k, p)
        } else {
            0
        }
    };
    let (oracle, _) = run_cfg(FaultPlan::new(), 6, skew, |b| b);
    let dir = spill_tmp("kill-spilled");
    let _ = std::fs::remove_dir_all(&dir);
    let (counts, history) = run_cfg(FaultPlan::new().kill(5, NodeId::new(1)), 6, skew, |b| {
        b.checkpoint_mode(CheckpointMode::Incremental)
            .spill_dir(dir.clone())
            .cold_after(2)
    });
    assert_eq!(counts, oracle, "spilled state lost or doubled");
    assert!(
        history[..5].iter().any(|r| r.spilled_groups > 0),
        "no group ever went cold before the kill"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The spill segments in `dir`, oldest generation first.
fn segments(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut segs: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.path()).collect::<Vec<_>>())
        .unwrap_or_default()
        .into_iter()
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let gen = name
                .strip_prefix("spill-")?
                .strip_suffix(".seg")?
                .parse()
                .ok()?;
            Some((gen, p))
        })
        .collect();
    segs.sort();
    segs.into_iter().map(|(_, p)| p).collect()
}

#[test]
fn a_damaged_spill_segment_is_exact_or_reported_never_silent() {
    // The spilled-groups scenario above, with the newest spill segment
    // damaged at the start of period 4 — one flipped byte, or the file
    // cut to half its length — while cold groups live only there, and a
    // kill at step 5 forcing recovery to restore them from it. The run
    // must either still match the fault-free oracle or count the damage
    // in `spill_failures`: a silent mismatch is state loss.
    let skew = |k: u64, p: u64| {
        if p == 0 || k < 4 {
            tuples_of(k, p)
        } else {
            0
        }
    };
    let (oracle, _) = run_cfg(FaultPlan::new(), 6, skew, |b| b);
    let mut reported = 0;
    for flip in [true, false] {
        let dir = spill_tmp(if flip { "flip" } else { "truncate" });
        let _ = std::fs::remove_dir_all(&dir);
        let damage = |p: u64| {
            if p != 4 {
                return;
            }
            let seg = segments(&dir)
                .pop()
                .expect("groups spilled before period 4");
            let mut bytes = std::fs::read(&seg).unwrap();
            assert!(!bytes.is_empty());
            if flip {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5a;
                std::fs::write(&seg, &bytes).unwrap();
            } else {
                let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
                f.set_len(bytes.len() as u64 / 2).unwrap();
            }
        };
        let (counts, mut job) = drive(
            FaultPlan::new().kill(5, NodeId::new(1)),
            6,
            skew,
            |b| {
                b.checkpoint_mode(CheckpointMode::Incremental)
                    .spill_dir(dir.clone())
                    .cold_after(2)
            },
            damage,
        );
        // One more boundary collects what the final probes ran into.
        let _ = job.step();
        let failures: u64 = job.history().iter().map(|r| r.spill_failures).sum();
        job.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            counts == oracle || failures > 0,
            "flip={flip}: counts diverge from the oracle with no spill failure reported\n  \
             got    {counts:?}\n  oracle {oracle:?}"
        );
        reported += failures;
    }
    assert!(reported > 0, "neither kind of damage reached a live record");
}
