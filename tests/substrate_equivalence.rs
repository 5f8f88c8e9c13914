//! Sim-vs-runtime equivalence: the module docs promise that "policies
//! cannot tell which substrate they run on". This test proves it through
//! the public `Job` API: two builder calls that differ only in
//! `build_threaded()` vs `build_simulated(..)` observe the same workload
//! and must make bit-identical migration decisions every period, ending
//! with identical routing assignments.

use std::collections::HashMap;
use std::time::Duration;

use albic::engine::fault::{FaultInjector, FaultPlan};
use albic::engine::operator::{Counting, Identity};
use albic::engine::sim::{WorkloadModel, WorkloadSnapshot};
use albic::engine::tuple::{hash_key, Tuple, Value};
use albic::engine::{PeriodStats, ReconfigMode, ReconfigPlan, RuntimeConfig};
use albic::job::{Job, JobBuilder, Policy};
use albic::milp::MigrationBudget;
use albic::types::{KeyGroupId, NodeId, Period};

const KEYS: u64 = 40;
const PERIODS: usize = 4;

/// Deterministic skewed per-key tuple counts for one period.
fn tuples_of(key: u64, period: u64) -> u64 {
    3 + (key * 7 + period * 5) % 13 + if key < 4 { 40 } else { 0 }
}

/// Replays precomputed snapshots — the rate-level view of exactly the
/// tuples the runtime test injects.
struct Recorded {
    groups: u32,
    snapshots: Vec<WorkloadSnapshot>,
}

impl WorkloadModel for Recorded {
    fn num_groups(&self) -> u32 {
        self.groups
    }
    fn snapshot(&mut self, period: Period) -> WorkloadSnapshot {
        self.snapshots[period.index() as usize].clone()
    }
}

/// The logical job, identically declared for either substrate: a
/// pass-through source feeding a stateful per-key counter, 8 key groups
/// each, everything starting on node 0 of a 2-node cluster.
fn builder() -> JobBuilder {
    Job::builder()
        .source("events", 8, Identity)
        .operator("count", 8, Counting)
        .edge("events", "count")
        .nodes(2)
        .routing_all_on_first()
        .policy(Policy::milp().with_budget(MigrationBudget::Count(6)))
}

/// Bit-identical equivalence must hold for *any* data-plane tuning: the
/// default batched configuration, the degenerate per-tuple one, and a
/// deliberately starved channel that forces backpressure on every hop.
#[test]
fn equivalent_with_default_batching() {
    assert_substrate_equivalence(RuntimeConfig::default(), ReconfigMode::Quiesce);
}

#[test]
fn equivalent_with_per_tuple_hand_off() {
    assert_substrate_equivalence(
        RuntimeConfig {
            batch_size: 1,
            ..RuntimeConfig::default()
        },
        ReconfigMode::Quiesce,
    );
}

#[test]
fn equivalent_with_tiny_channel_capacity() {
    assert_substrate_equivalence(
        RuntimeConfig {
            batch_size: 7,
            channel_capacity: 2,
            flush_interval: Duration::from_micros(50),
            ..RuntimeConfig::default()
        },
        ReconfigMode::Quiesce,
    );
}

/// Epoch-aligned applies must be invisible to the decision layer: the
/// same workload and policy in epoch mode, on both substrates, produce
/// the identical signals, plans and final routing the quiesced mode
/// does — migrations just execute without the global pause.
#[test]
fn equivalent_in_epoch_mode() {
    assert_substrate_equivalence(RuntimeConfig::default(), ReconfigMode::Epoch);
}

/// Epoch mode with periodic no-op barrier waves streaming through the
/// data plane: alignment runs continuously under load and still changes
/// nothing observable.
#[test]
fn equivalent_in_epoch_mode_with_barrier_interval() {
    assert_substrate_equivalence(
        RuntimeConfig {
            barrier_interval: 128,
            ..RuntimeConfig::default()
        },
        ReconfigMode::Epoch,
    );
}

fn assert_substrate_equivalence(cfg: RuntimeConfig, mode: ReconfigMode) {
    // --- Substrate A: the threaded runtime. ---
    let mut rt_job = builder()
        .runtime_config(cfg)
        .reconfig_mode(mode)
        .build_threaded()
        .expect("valid job spec");
    let topology = rt_job.engine().topology().clone();
    let num_groups = topology.num_key_groups();
    let (src, cnt) = (
        topology.operator_by_name("events").unwrap(),
        topology.operator_by_name("count").unwrap(),
    );

    // Key → (source group, counter group), via the same hashing the
    // runtime routes with.
    let key_groups: Vec<(KeyGroupId, KeyGroupId)> = (0..KEYS)
        .map(|k| {
            let h = hash_key(&k);
            (
                topology.group_for_key(src, h),
                topology.group_for_key(cnt, h),
            )
        })
        .collect();

    let mut rt_plans: Vec<ReconfigPlan> = Vec::new();
    let mut rt_stats: Vec<PeriodStats> = Vec::new();
    for p in 0..PERIODS as u64 {
        for k in 0..KEYS {
            let n = tuples_of(k, p);
            rt_job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = rt_job.step();
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        rt_stats.push(report.stats);
        rt_plans.push(report.plan);
    }
    let rt_assignment = rt_job.engine().routing_snapshot().assignment().to_vec();
    rt_job.shutdown();

    // Precompute the rate-level snapshots the simulator will replay: per
    // period, the per-group tuple counts, the src→cnt flows, and the
    // resident counter states (8 bytes once a group has ever been active).
    let mut snapshots = Vec::with_capacity(PERIODS);
    let mut ever_active: Vec<bool> = vec![false; num_groups as usize];
    for p in 0..PERIODS as u64 {
        let mut group_tuples = vec![0.0; num_groups as usize];
        let mut comm: HashMap<(KeyGroupId, KeyGroupId), f64> = HashMap::new();
        for k in 0..KEYS {
            let n = tuples_of(k, p) as f64;
            let (gs, gc) = key_groups[k as usize];
            group_tuples[gs.index()] += n;
            group_tuples[gc.index()] += n;
            *comm.entry((gs, gc)).or_insert(0.0) += n;
            ever_active[gs.index()] = true;
            ever_active[gc.index()] = true;
        }
        // Identity groups keep zero-byte states; counter groups hold a
        // u64 (8 bytes) once they have seen a tuple.
        let state_bytes: Vec<f64> = (0..num_groups)
            .map(|g| {
                let kg = KeyGroupId::new(g);
                if ever_active[kg.index()] && topology.operator_of_group(kg) == cnt {
                    8.0
                } else {
                    0.0
                }
            })
            .collect();
        snapshots.push(WorkloadSnapshot {
            group_tuples,
            group_cost: vec![1.0; num_groups as usize],
            comm: comm.into_iter().map(|((a, b), n)| (a, b, n)).collect(),
            state_bytes,
        });
    }

    // --- Substrate B: the simulator, replaying the same workload through
    // the identical builder call. ---
    let mut sim_job = builder()
        .reconfig_mode(mode)
        .build_simulated(Recorded {
            groups: num_groups,
            snapshots,
        })
        .expect("valid job spec");
    let mut sim_plans: Vec<ReconfigPlan> = Vec::new();
    let mut sim_stats: Vec<PeriodStats> = Vec::new();
    for _ in 0..PERIODS {
        let report = sim_job.step();
        sim_stats.push(report.stats);
        sim_plans.push(report.plan);
    }
    let sim_assignment = sim_job.engine().routing().assignment().to_vec();

    // --- The policy must not be able to tell the substrates apart. ---
    for p in 0..PERIODS {
        // Identical statistics signals...
        assert_eq!(
            rt_stats[p].allocation, sim_stats[p].allocation,
            "period {p}: allocation snapshots diverge"
        );
        for g in 0..num_groups as usize {
            assert!(
                (rt_stats[p].group_loads[g] - sim_stats[p].group_loads[g]).abs() < 1e-9,
                "period {p}, group {g}: loads diverge ({} vs {})",
                rt_stats[p].group_loads[g],
                sim_stats[p].group_loads[g]
            );
        }
        assert_eq!(
            rt_stats[p].total_tuples, sim_stats[p].total_tuples,
            "period {p}: tuple totals diverge"
        );
        assert_eq!(
            rt_stats[p].cross_tuples, sim_stats[p].cross_tuples,
            "period {p}: cross-node traffic diverges"
        );
        // ...therefore identical decisions.
        let (rp, sp): (&ReconfigPlan, &ReconfigPlan) = (&rt_plans[p], &sim_plans[p]);
        assert_eq!(
            rp.migrations, sp.migrations,
            "period {p}: migration decisions diverge"
        );
        assert_eq!(rp.add_nodes, sp.add_nodes);
        assert_eq!(rp.mark_removal, sp.mark_removal);
    }
    let migrated: usize = rt_plans.iter().map(|p| p.migrations.len()).sum();
    assert!(
        migrated > 0,
        "the scenario must actually exercise migrations"
    );
    assert_eq!(
        rt_assignment, sim_assignment,
        "final routing assignments diverge"
    );
}

/// Recovery is substrate-equivalent too: the same [`FaultPlan`] (kill
/// node 1 before step 2) on the threaded runtime and on the simulator
/// yields bit-identical post-recovery decision signals, identical plans
/// every period, and identical final routing assignments — both engines
/// re-home lost groups through the one shared `recovery_placement`, and
/// the runtime's checkpoint-rollback + log-replay makes its measured
/// statistics count each logical tuple exactly once despite the crash.
#[test]
fn fault_plan_is_substrate_equivalent() {
    const NODES: usize = 3;
    let plan = || FaultPlan::new().kill(2, NodeId::new(1));
    let fault_builder = || {
        Job::builder()
            .source("events", 8, Identity)
            .operator("count", 8, Counting)
            .edge("events", "count")
            .nodes(NODES)
            .checkpoint_interval(1)
            .policy(Policy::milp().with_budget(MigrationBudget::Count(6)))
    };

    // --- Substrate A: the threaded runtime. ---
    let mut rt_job = fault_builder().build_threaded().expect("valid job spec");
    let topology = rt_job.engine().topology().clone();
    let num_groups = topology.num_key_groups();
    let (src, cnt) = (
        topology.operator_by_name("events").unwrap(),
        topology.operator_by_name("count").unwrap(),
    );
    let key_groups: Vec<(KeyGroupId, KeyGroupId)> = (0..KEYS)
        .map(|k| {
            let h = hash_key(&k);
            (
                topology.group_for_key(src, h),
                topology.group_for_key(cnt, h),
            )
        })
        .collect();

    let mut rt_faults = FaultInjector::new(plan());
    let mut rt_plans: Vec<ReconfigPlan> = Vec::new();
    let mut rt_stats: Vec<PeriodStats> = Vec::new();
    for p in 0..PERIODS as u64 {
        let killed = rt_faults.advance(rt_job.engine_mut());
        assert_eq!(killed.len(), usize::from(p == 2));
        for k in 0..KEYS {
            let n = tuples_of(k, p);
            rt_job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = rt_job.step();
        assert_eq!(report.recovery.failed.len(), usize::from(p == 2));
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        rt_stats.push(report.stats);
        rt_plans.push(report.plan);
    }
    let rt_assignment = rt_job.engine().routing_snapshot().assignment().to_vec();
    let rt_history = rt_job.history().to_vec();
    rt_job.shutdown();

    // --- Substrate B: the simulator replaying the rate-level view of
    // the same schedule, under the same FaultPlan. ---
    let mut snapshots = Vec::with_capacity(PERIODS);
    let mut ever_active: Vec<bool> = vec![false; num_groups as usize];
    for p in 0..PERIODS as u64 {
        let mut group_tuples = vec![0.0; num_groups as usize];
        let mut comm: HashMap<(KeyGroupId, KeyGroupId), f64> = HashMap::new();
        for k in 0..KEYS {
            let n = tuples_of(k, p) as f64;
            let (gs, gc) = key_groups[k as usize];
            group_tuples[gs.index()] += n;
            group_tuples[gc.index()] += n;
            *comm.entry((gs, gc)).or_insert(0.0) += n;
            ever_active[gs.index()] = true;
            ever_active[gc.index()] = true;
        }
        let state_bytes: Vec<f64> = (0..num_groups)
            .map(|g| {
                let kg = KeyGroupId::new(g);
                if ever_active[kg.index()] && topology.operator_of_group(kg) == cnt {
                    8.0
                } else {
                    0.0
                }
            })
            .collect();
        snapshots.push(WorkloadSnapshot {
            group_tuples,
            group_cost: vec![1.0; num_groups as usize],
            comm: comm.into_iter().map(|((a, b), n)| (a, b, n)).collect(),
            state_bytes,
        });
    }
    let mut sim_job = fault_builder()
        .build_simulated(Recorded {
            groups: num_groups,
            snapshots,
        })
        .expect("valid job spec");
    let mut sim_faults = FaultInjector::new(plan());
    let mut sim_plans: Vec<ReconfigPlan> = Vec::new();
    let mut sim_stats: Vec<PeriodStats> = Vec::new();
    for _ in 0..PERIODS {
        let _ = sim_faults.advance(sim_job.engine_mut());
        let report = sim_job.step();
        sim_stats.push(report.stats);
        sim_plans.push(report.plan);
    }
    let sim_assignment = sim_job.engine().routing().assignment().to_vec();
    let sim_history = sim_job.history().to_vec();

    // --- Identical signals, identical decisions, identical placement. ---
    for p in 0..PERIODS {
        assert_eq!(
            rt_stats[p].allocation, sim_stats[p].allocation,
            "period {p}: post-recovery allocation snapshots diverge"
        );
        for g in 0..num_groups as usize {
            assert!(
                (rt_stats[p].group_loads[g] - sim_stats[p].group_loads[g]).abs() < 1e-9,
                "period {p}, group {g}: loads diverge ({} vs {})",
                rt_stats[p].group_loads[g],
                sim_stats[p].group_loads[g]
            );
        }
        assert_eq!(rt_stats[p].total_tuples, sim_stats[p].total_tuples);
        assert_eq!(rt_stats[p].cross_tuples, sim_stats[p].cross_tuples);
        assert_eq!(rt_stats[p].dropped_tuples, 0.0);
        assert_eq!(sim_stats[p].dropped_tuples, 0.0);
        assert_eq!(
            rt_plans[p].migrations, sim_plans[p].migrations,
            "period {p}: post-recovery migration decisions diverge"
        );
        assert_eq!(rt_plans[p].add_nodes, sim_plans[p].add_nodes);
        assert_eq!(rt_plans[p].mark_removal, sim_plans[p].mark_removal);
        assert_eq!(
            rt_history[p].failed_nodes, sim_history[p].failed_nodes,
            "period {p}: recovery accounting diverges"
        );
        assert_eq!(
            rt_history[p].groups_restored,
            sim_history[p].groups_restored
        );
        assert_eq!(rt_history[p].num_nodes, sim_history[p].num_nodes);
    }
    assert_eq!(rt_history[2].failed_nodes, 1, "the kill really landed");
    assert!(rt_history[2].groups_restored > 0);
    assert_eq!(
        rt_assignment, sim_assignment,
        "final post-recovery routing assignments diverge"
    );
}

/// Drive one threaded job (in-process or networked — the builder decides)
/// through the standard skewed workload, returning the per-period decision
/// signals and the final routing assignment.
fn run_threaded(builder: JobBuilder) -> (Vec<PeriodStats>, Vec<ReconfigPlan>, Vec<NodeId>) {
    let mut job = builder.build_threaded().expect("valid job spec");
    let mut plans = Vec::new();
    let mut stats = Vec::new();
    for p in 0..PERIODS as u64 {
        for k in 0..KEYS {
            let n = tuples_of(k, p);
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        stats.push(report.stats);
        plans.push(report.plan);
    }
    let assignment = job.engine().routing_snapshot().assignment().to_vec();
    job.shutdown();
    (stats, plans, assignment)
}

/// The networked substrate is equivalent too: the same job on real worker
/// processes over loopback TCP observes bit-identical statistics signals,
/// makes the identical migration decisions every period, and ends with the
/// identical routing assignment as the in-process runtime. (Wall-clock
/// pressure gauges are excluded — queue depths depend on socket timing.)
#[test]
fn networked_tcp_runtime_matches_in_process_bit_for_bit() {
    let (in_stats, in_plans, in_assignment) = run_threaded(builder());
    let net =
        albic::TransportOptions::Net(albic::NetConfig::tcp(env!("CARGO_BIN_EXE_albic-worker")));
    let (net_stats, net_plans, net_assignment) = run_threaded(builder().transport(net));

    let num_groups = in_stats[0].group_loads.len();
    for p in 0..PERIODS {
        assert_eq!(
            in_stats[p].allocation, net_stats[p].allocation,
            "period {p}: allocation snapshots diverge across the wire"
        );
        for g in 0..num_groups {
            assert!(
                (in_stats[p].group_loads[g] - net_stats[p].group_loads[g]).abs() < 1e-9,
                "period {p}, group {g}: loads diverge ({} vs {})",
                in_stats[p].group_loads[g],
                net_stats[p].group_loads[g]
            );
        }
        assert_eq!(
            in_stats[p].total_tuples, net_stats[p].total_tuples,
            "period {p}: tuple totals diverge across the wire"
        );
        assert_eq!(
            in_stats[p].cross_tuples, net_stats[p].cross_tuples,
            "period {p}: cross-node traffic diverges across the wire"
        );
        assert_eq!(in_stats[p].dropped_tuples, 0.0);
        assert_eq!(net_stats[p].dropped_tuples, 0.0);
        assert_eq!(
            in_plans[p].migrations, net_plans[p].migrations,
            "period {p}: migration decisions diverge across the wire"
        );
        assert_eq!(in_plans[p].add_nodes, net_plans[p].add_nodes);
        assert_eq!(in_plans[p].mark_removal, net_plans[p].mark_removal);
    }
    let migrated: usize = in_plans.iter().map(|p| p.migrations.len()).sum();
    assert!(migrated > 0, "the scenario must actually migrate over TCP");
    assert_eq!(
        in_assignment, net_assignment,
        "final routing assignments diverge across the wire"
    );
}

/// The runtime executes the decisions for real: after the equivalent run,
/// the counter state of a migrated group lives on its new node and counts
/// every injected tuple exactly once.
#[test]
fn runtime_migrations_really_move_state() {
    let mut job = Job::builder()
        .source("events", 4, Identity)
        .operator("count", 4, Counting)
        .edge("events", "count")
        .nodes(2)
        .routing_all_on_first()
        .policy(Policy::milp())
        .build_threaded()
        .expect("valid job spec");

    let key = 11u64;
    for p in 0..3u64 {
        let _ = job
            .inject(
                "events",
                (0..50u64).map(|i| Tuple::keyed(&key, Value::Int(i as i64), p)),
            )
            .step();
    }
    let rt = job.into_engine();
    let cnt = rt.topology().operator_by_name("count").unwrap();
    let kg = rt.topology().group_for_key(cnt, hash_key(&key));
    let bytes = rt.probe_state(kg).expect("counter state exists somewhere");
    let mut arr = [0u8; 8];
    arr.copy_from_slice(&bytes[..8]);
    assert_eq!(u64::from_le_bytes(arr), 150, "every tuple counted once");
    rt.shutdown();
}
