//! Networked-transport integration: jobs whose workers are real child
//! processes connected over TCP or Unix-domain sockets must behave
//! exactly like the in-process substrate — including state migration
//! over the wire, session resumption after a dropped socket (the process
//! survives, so nothing may be lost or recovered), exactly-once recovery
//! from a SIGKILLed worker process even under a generous reconnect
//! policy, LZ4-compressed state blobs, and token-authenticated workers
//! that join a controller they were not spawned by.

mod support;

use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use albic::engine::fault::{FaultInjector, FaultPlan};
use albic::engine::operator::{Counting, Identity, PaddedCounting, PADDED_STATE_PAD};
use albic::engine::transport::{worker_main, OperatorRegistry};
use albic::engine::tuple::{hash_key, Tuple, Value};
use albic::engine::{Runtime, RuntimeConfig};
use albic::job::{Job, JobBuilder, Policy};
use albic::types::{KeyGroupId, NodeId};
use albic::{NetConfig, ReconnectPolicy, SocketKind, TransportOptions};

/// The stock worker daemon, built alongside this test by cargo.
fn worker_bin() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_BIN_EXE_albic-worker"))
}

fn net(kind: SocketKind) -> TransportOptions {
    TransportOptions::Net(match kind {
        SocketKind::Tcp => NetConfig::tcp(worker_bin()),
        #[cfg(unix)]
        SocketKind::Uds => NetConfig::uds(worker_bin()),
    })
}

/// A small two-stage job: pass-through source feeding a stateful
/// per-key-group counter, everything starting on node 0 so the MILP
/// policy has migrations to perform.
fn two_stage(nodes: usize) -> JobBuilder {
    Job::builder()
        .source("events", 4, Identity)
        .operator("count", 4, Counting)
        .edge("events", "count")
        .nodes(nodes)
        .routing_all_on_first()
        .policy(Policy::milp())
}

/// Drive `builder` through `periods` rounds of the skewed workload while
/// `plan` injects scripted faults, and return the final per-group counter
/// values. Recovery must never fire: this runner is for fault plans
/// (socket drops, or none at all) that the transport must absorb without
/// declaring a worker dead.
fn run_with_plan(builder: JobBuilder, plan: FaultPlan, periods: u64) -> Vec<(KeyGroupId, u64)> {
    let mut job = builder.build_threaded().expect("job starts");
    let mut faults = FaultInjector::new(plan);
    for p in 0..periods {
        let killed = faults.advance(job.engine_mut());
        assert!(killed.is_empty(), "this runner scripts no kills");
        for k in 0..12u64 {
            let n = 10 + (k * 3 + p) % 7;
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        assert!(
            report.recovery.failed.is_empty(),
            "period {p}: a dropped socket is not a dead worker — recovery must not fire"
        );
        assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
    }
    let rt = job.into_engine();
    let cnt = rt.topology().operator_by_name("count").unwrap();
    let groups: Vec<KeyGroupId> = (0..rt.topology().num_key_groups())
        .map(KeyGroupId::new)
        .filter(|&g| rt.topology().operator_of_group(g) == cnt)
        .collect();
    let probed = groups
        .iter()
        .map(|&g| {
            let count = rt.probe_state(g).map_or(0, |bytes| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&bytes[..8]);
                u64::from_le_bytes(arr)
            });
            (g, count)
        })
        .collect();
    rt.shutdown();
    probed
}

/// Run the 3-period workload fault-free.
fn run_and_probe(builder: JobBuilder) -> Vec<(KeyGroupId, u64)> {
    run_with_plan(builder, FaultPlan::new(), 3)
}

/// What the counters must hold after `periods` rounds of the workload:
/// every injected tuple counted exactly once, grouped by the counter's
/// key groups.
fn expected_counts(groups: &[(KeyGroupId, u64)], periods: u64) -> Vec<(KeyGroupId, u64)> {
    let mut expect: Vec<(KeyGroupId, u64)> = groups.iter().map(|&(g, _)| (g, 0)).collect();
    // Reconstruct the counter group of each key with the same topology
    // declaration (4 groups at the counter, offset by the source's 4).
    for k in 0..12u64 {
        let total: u64 = (0..periods).map(|p| 10 + (k * 3 + p) % 7).sum();
        let g = KeyGroupId::new(4 + (hash_key(&k) % 4) as u32);
        let slot = expect.iter_mut().find(|(eg, _)| *eg == g).unwrap();
        slot.1 += total;
    }
    expect
}

/// TCP loopback: the job runs on worker processes, migrates state over
/// the wire, and counts every tuple exactly once.
#[test]
fn tcp_loopback_job_counts_exactly_once() {
    let probed = run_and_probe(two_stage(2).transport(net(SocketKind::Tcp)));
    assert_eq!(probed, expected_counts(&probed, 3));
    assert!(probed.iter().any(|&(_, n)| n > 0), "counters actually ran");
}

/// The same job over a Unix-domain socket.
#[cfg(unix)]
#[test]
fn uds_loopback_job_counts_exactly_once() {
    let probed = run_and_probe(two_stage(2).transport(net(SocketKind::Uds)));
    assert_eq!(probed, expected_counts(&probed, 3));
    assert!(probed.iter().any(|&(_, n)| n > 0), "counters actually ran");
}

/// Socket death is not worker death: sever both workers' connections at
/// scripted steps (the processes stay alive and keep their state). The
/// sessions must resume over fresh sockets — no recovery, no checkpoint
/// rollback — and the final counters must be bit-identical to the
/// in-process oracle running the same workload.
#[test]
fn dropped_socket_resumes_session_with_exactly_once_counts() {
    let oracle = run_and_probe(two_stage(2));
    let mut job = two_stage(2)
        .transport(net(SocketKind::Tcp))
        .build_threaded()
        .expect("job starts");
    for p in 0..3u64 {
        // Sever a live connection before periods 1 and 2 — right before
        // the injections and the migration wave ride the link.
        if p > 0 {
            let node = NodeId::new((p % 2) as u32);
            assert!(
                job.engine_mut().drop_socket(node),
                "period {p}: {node:?} had a live connection to sever"
            );
        }
        for k in 0..12u64 {
            let n = 10 + (k * 3 + p) % 7;
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        assert!(
            report.recovery.failed.is_empty(),
            "period {p}: a dropped socket is not a dead worker — recovery must not fire"
        );
        assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
    }
    let rt = job.into_engine();
    let cnt = rt.topology().operator_by_name("count").unwrap();
    let probed: Vec<(KeyGroupId, u64)> = (0..rt.topology().num_key_groups())
        .map(KeyGroupId::new)
        .filter(|&g| rt.topology().operator_of_group(g) == cnt)
        .map(|g| {
            let count = rt.probe_state(g).map_or(0, |bytes| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&bytes[..8]);
                u64::from_le_bytes(arr)
            });
            (g, count)
        })
        .collect();
    rt.shutdown();
    assert_eq!(
        probed, oracle,
        "a resumed session must replay into bit-identical state"
    );
    assert!(probed.iter().any(|&(_, n)| n > 0), "counters actually ran");
}

/// Probe the `count` operator's per-group counters and shut the engine
/// down.
fn probe_counts(job: Job<Runtime>) -> Vec<(KeyGroupId, u64)> {
    let rt = job.into_engine();
    let cnt = rt.topology().operator_by_name("count").unwrap();
    let probed = (0..rt.topology().num_key_groups())
        .map(KeyGroupId::new)
        .filter(|&g| rt.topology().operator_of_group(g) == cnt)
        .map(|g| {
            let count = rt.probe_state(g).map_or(0, |bytes| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&bytes[..8]);
                u64::from_le_bytes(arr)
            });
            (g, count)
        })
        .collect();
    rt.shutdown();
    probed
}

/// The spill tier over worker daemons: `PaddedCounting` groups (16 KiB
/// images) go cold for a period, spill to the coordinator's segment and
/// are faulted back in by the daemons with positioned reads of the
/// extents the coordinator sent them — before a SIGKILL, and on the
/// survivor after recovery hands it the dead worker's extents. The
/// counters must match the in-process run of the same schedule.
#[cfg(unix)]
#[test]
fn uds_daemons_fault_spilled_groups_back_in_by_extent_across_a_kill() {
    let run = |networked: bool| {
        let dir = std::env::temp_dir().join(format!(
            "albic-transport-spill-{}-{networked}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut builder = Job::builder()
            .source("events", 4, Identity)
            .operator("count", 4, PaddedCounting)
            .edge("events", "count")
            .nodes(2)
            .policy(Policy::noop())
            .checkpoint_interval(1)
            .checkpoint_mode(albic::engine::CheckpointMode::Incremental)
            .spill_dir(dir.clone())
            .cold_after(1);
        if networked {
            builder = builder.transport(net(SocketKind::Uds));
        }
        let mut job = builder.build_threaded().expect("job starts");
        let mut faults = FaultInjector::new(FaultPlan::new().kill(5, NodeId::new(1)));
        for p in 0..8u64 {
            let killed = faults.advance(job.engine_mut());
            assert_eq!(killed.len(), usize::from(p == 5), "kill lands at period 5");
            // Each counter group is fed every third period, so it idles
            // long enough to spill and then faults back in.
            for k in (0..12u64).filter(|k| (hash_key(k) % 4 + p) % 3 == 0) {
                let n = 10 + (k * 3 + p) % 7;
                job.inject(
                    "events",
                    (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
                );
            }
            let report = job.step();
            assert_eq!(report.recovery.failed.len(), usize::from(p == 5));
            assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
        }
        let history = job.history().to_vec();
        let counts = probe_counts(job);
        let _ = std::fs::remove_dir_all(&dir);
        (counts, history)
    };
    let (oracle, _) = run(false);
    let (counts, history) = run(true);
    assert_eq!(
        counts, oracle,
        "networked spill tier diverges from in-process"
    );
    assert!(oracle.iter().any(|&(_, n)| n > 0), "counters actually ran");
    for (range, when) in [(1..5, "before"), (6..8, "after")] {
        assert!(
            history[range].iter().any(|r| r.spilled_groups > 0),
            "no group spilled {when} the kill"
        );
    }
    assert!(history.iter().all(|r| r.spill_failures == 0), "{history:?}");
}

/// A stub writer is two threads' worth of session: cut the socket while
/// the writer is in the middle of a burst larger than the socket buffer
/// (well over 1 MiB of chunks, injected in one call) and the session
/// must still resume — zero recovery, zero drops, and counters
/// bit-identical to the in-process oracle.
#[cfg(unix)]
#[test]
fn socket_dropped_mid_burst_resumes_with_exactly_once_counts() {
    const ROWS_PER_KEY: u64 = 4_000; // 12 keys × 4 000 rows ≈ 1.4 MiB encoded
    let drive = |mut job: Job<Runtime>, cut: bool| {
        for p in 0..3u64 {
            job.inject(
                "events",
                (0..12u64).flat_map(|k| {
                    (0..ROWS_PER_KEY).map(move |i| Tuple::keyed(&k, Value::Int(i as i64), p))
                }),
            );
            if cut && p == 1 {
                // Right after the burst is queued: the writers are still
                // pushing it down the sockets.
                for node in 0..2 {
                    assert!(job.engine_mut().drop_socket(NodeId::new(node)));
                }
            }
            let report = job.step();
            assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
            assert!(
                report.recovery.failed.is_empty(),
                "period {p}: a dropped socket is not a dead worker — recovery must not fire"
            );
            assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
        }
        probe_counts(job)
    };
    let oracle = drive(two_stage(2).build_threaded().expect("job starts"), false);
    let probed = drive(
        two_stage(2)
            .transport(net(SocketKind::Uds))
            .build_threaded()
            .expect("job starts"),
        true,
    );
    assert_eq!(
        probed, oracle,
        "a burst cut mid-write must replay exactly once"
    );
    assert_eq!(
        probed.iter().map(|&(_, n)| n).sum::<u64>(),
        3 * 12 * ROWS_PER_KEY
    );
}

/// A trickle over UDS: every tuple is its own `inject` call, so each
/// stub writer finds runs of one-row chunks queued and merges them into
/// frames, and each daemon merges the chunks queued in its own inbox —
/// across the control messages of the MILP policy's migrations. Counts
/// must equal the in-process oracle's, with nothing dropped.
#[cfg(unix)]
#[test]
fn uds_trickle_of_one_tuple_calls_counts_like_the_in_process_oracle() {
    let drive = |mut job: Job<Runtime>| {
        for p in 0..3u64 {
            for i in 0..16u64 {
                for k in 0..12u64 {
                    job.inject("events", [Tuple::keyed(&k, Value::Int(i as i64), p)]);
                }
            }
            let report = job.step();
            assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
            assert!(report.recovery.failed.is_empty(), "period {p}");
            assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
        }
        probe_counts(job)
    };
    let oracle = drive(two_stage(2).build_threaded().expect("job starts"));
    let probed = drive(
        two_stage(2)
            .transport(net(SocketKind::Uds))
            .build_threaded()
            .expect("job starts"),
    );
    assert_eq!(probed, oracle);
    assert_eq!(probed.iter().map(|&(_, n)| n).sum::<u64>(), 3 * 16 * 12);
}

/// The worker daemon of the deep-chain case: this test binary itself,
/// re-entered by [`deep_chain_worker_launcher`] with only this test
/// selected, serving as a worker that also knows the chain's window and
/// hop operators. Run as part of the suite — no controller address in
/// the environment — it returns at once.
#[cfg(unix)]
#[test]
fn deep_chain_worker_daemon() {
    if std::env::var_os("ALBIC_WORKER_CONNECT").is_none() {
        return;
    }
    let mut registry = OperatorRegistry::with_builtins();
    registry
        .register(Arc::new(support::WindowCount))
        .register(Arc::new(support::SlowHop));
    std::process::exit(worker_main(registry));
}

/// A launcher script for [`deep_chain_worker_daemon`], usable as a
/// `NetConfig` worker command. Each call writes its own, so tests running
/// in parallel never remove one another's.
#[cfg(unix)]
fn deep_chain_worker_launcher() -> std::path::PathBuf {
    use std::os::unix::fs::PermissionsExt;
    use std::sync::atomic::{AtomicU64, Ordering};
    static LAUNCHERS: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().expect("test binary path");
    let script = std::env::temp_dir().join(format!(
        "albic-deep-chain-worker-{}-{}.sh",
        std::process::id(),
        LAUNCHERS.fetch_add(1, Ordering::Relaxed)
    ));
    let body = format!(
        "#!/bin/sh\nexec '{}' deep_chain_worker_daemon --exact --test-threads=1 >/dev/null\n",
        exe.display()
    );
    std::fs::write(&script, body).expect("write the launcher");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("make the launcher executable");
    script
}

/// Window emissions crossing eight slow hops between two daemons — each
/// hop a `FORWARD` through the controller hub — are settled within
/// their period: per-period loads and final counts equal the in-process
/// oracle's.
#[cfg(unix)]
#[test]
fn uds_deep_window_chain_counts_like_the_in_process_oracle() {
    let drive = |mut job: Job<Runtime>| {
        let mut periods = Vec::new();
        for p in 0..3u64 {
            for tuples in support::period_input(p) {
                job.inject("events", tuples);
            }
            let report = job.step();
            assert!(report.recovery.failed.is_empty(), "period {p}");
            assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
            let loads: Vec<u64> = report
                .stats
                .group_loads
                .iter()
                .map(|l| l.to_bits())
                .collect();
            periods.push((loads, report.stats.total_tuples, report.stats.cross_tuples));
        }
        job.settle();
        let counts = support::final_counts(job.engine());
        job.shutdown();
        (periods, counts)
    };
    let oracle = drive(
        support::deep_window_chain(2)
            .build_threaded()
            .expect("job starts"),
    );
    let launcher = deep_chain_worker_launcher();
    let networked = drive(
        support::deep_window_chain(2)
            .transport(TransportOptions::Net(NetConfig::uds(&launcher)))
            .build_threaded()
            .expect("job starts"),
    );
    let _ = std::fs::remove_file(&launcher);
    assert_eq!(networked, oracle);
    assert_eq!(oracle.1.iter().sum::<u64>(), 3 * support::KEYS);
}

/// Backpressure across the socket. A daemon credits a data chunk back to
/// its stub only once its worker has dequeued it, so a slow daemon fills
/// the session window (128 frames), its stub stops writing, the stub's
/// gauge fills and `inject` blocks — as it would on a slow in-process
/// worker. Sixteen windows of one-tuple chunks into a `SlowHop` source
/// (100 µs a tuple): `inject` returns only once the daemon is at most a
/// window plus a few channel capacities behind, and after the settle
/// every tuple is counted exactly once.
#[cfg(unix)]
fn slow_daemon_blocks_the_producer(net: fn(std::path::PathBuf) -> NetConfig) {
    const WINDOW: usize = 128;
    const CAPACITY: usize = 8;
    const TUPLES: usize = 16 * WINDOW;
    let launcher = deep_chain_worker_launcher();
    let mut job = Job::builder()
        .source("events", 4, support::SlowHop)
        .operator("count", 4, Counting)
        .edge("events", "count")
        .nodes(2)
        .routing_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1])
        .policy(Policy::noop())
        .runtime_config(RuntimeConfig {
            batch_size: 1,
            channel_capacity: CAPACITY,
            ..RuntimeConfig::default()
        })
        .transport(TransportOptions::Net(net(launcher.clone())))
        .build_threaded()
        .expect("job starts");
    let t0 = Instant::now();
    job.inject(
        "events",
        (0..TUPLES as u64).map(|k| Tuple::keyed(&k, Value::Int(1), 0)),
    );
    let blocked = t0.elapsed();
    // Behind the returned inject sit at most: the stub's inbox and the
    // burst its writer holds (a capacity each), the window plus one more
    // burst, and the chunk being processed. Everything else was
    // processed, 100 µs a tuple.
    let floor = Duration::from_micros(100) * (TUPLES - WINDOW - 4 * CAPACITY) as u32;
    assert!(
        blocked >= floor,
        "inject returned after {blocked:?}: the daemon was more than a window behind"
    );
    job.settle();
    let counts = probe_counts(job);
    let _ = std::fs::remove_file(&launcher);
    assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u64>(), TUPLES as u64);
}

#[cfg(unix)]
#[test]
fn uds_slow_daemon_blocks_the_producer_at_one_window() {
    slow_daemon_blocks_the_producer(NetConfig::uds);
}

#[cfg(unix)]
#[test]
fn tcp_slow_daemon_blocks_the_producer_at_one_window() {
    slow_daemon_blocks_the_producer(NetConfig::tcp);
}

/// A SIGKILLed daemon whose stub writer sits parked on an *empty* inbox:
/// nothing on the message path times out, so the kill itself must wake
/// the writer — the worker reads dead within the runtime's fault
/// patience (10 s) and recovery still ends exactly-once.
#[test]
fn sigkill_wakes_a_stub_parked_on_an_empty_inbox() {
    let mut job = two_stage(3)
        .checkpoint_interval(1)
        .transport(net(SocketKind::Tcp))
        .build_threaded()
        .expect("job starts");
    for p in 0..4u64 {
        if p == 2 {
            // The last step settled every inbox: all three writers are
            // parked on an empty one.
            let t0 = Instant::now();
            assert!(
                job.engine_mut().inject_fault(NodeId::new(1)),
                "the killed worker must read dead within the fault patience"
            );
            assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        }
        for k in 0..12u64 {
            let n = 10 + (k * 3 + p) % 7;
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert_eq!(
            report.recovery.failed.len(),
            usize::from(p == 2),
            "period {p}: recovery report"
        );
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
    }
    let probed = probe_counts(job);
    assert_eq!(
        probed,
        expected_counts(&probed, 4),
        "exactly-once after SIGKILL"
    );
}

/// Process-kill fault injection: a [`FaultPlan`] in networked mode
/// SIGKILLs the worker's OS process mid-job — under a *generous*
/// reconnect policy, which must not help, because the process (and its
/// state) is actually gone. The transport must refuse to wait out the
/// policy for a worker it killed itself, and checkpoint rollback plus
/// replay must still deliver exactly-once counts, deterministically.
#[test]
fn sigkilled_worker_process_recovers_exactly_once() {
    let generous = ReconnectPolicy {
        attempts: 32,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: 0.5,
    };
    let mut job = two_stage(3)
        .checkpoint_interval(1)
        .transport(TransportOptions::Net(
            NetConfig::tcp(worker_bin()).reconnect(generous),
        ))
        .build_threaded()
        .expect("job starts");
    let mut faults = FaultInjector::new(FaultPlan::new().kill(2, NodeId::new(1)));
    for p in 0..4u64 {
        let killed = faults.advance(job.engine_mut());
        assert_eq!(killed.len(), usize::from(p == 2), "kill lands at period 2");
        for k in 0..12u64 {
            let n = 10 + (k * 3 + p) % 7;
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert_eq!(
            report.recovery.failed.len(),
            usize::from(p == 2),
            "period {p}: recovery report"
        );
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        assert_eq!(report.stats.dropped_tuples, 0.0, "period {p}: no drops");
    }
    let rt = job.into_engine();
    let cnt = rt.topology().operator_by_name("count").unwrap();
    for g in (0..rt.topology().num_key_groups()).map(KeyGroupId::new) {
        if rt.topology().operator_of_group(g) != cnt {
            continue;
        }
        let expected: u64 = (0..12u64)
            .filter(|&k| KeyGroupId::new(4 + (hash_key(&k) % 4) as u32) == g)
            .map(|k| (0..4u64).map(|p| 10 + (k * 3 + p) % 7).sum::<u64>())
            .sum();
        let got = rt.probe_state(g).map_or(0, |bytes| {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(&bytes[..8]);
            u64::from_le_bytes(arr)
        });
        assert_eq!(got, expected, "group {g:?}: exactly-once after SIGKILL");
    }
    rt.shutdown();
}

/// Wire compression: the same job with LZ4 state compression on must
/// produce identical counts, and the migration accounting must show the
/// compressible state costing far fewer bytes on the wire than raw.
#[test]
fn compressed_state_migration_counts_exactly_once_and_shrinks() {
    let padded = |nodes: usize| {
        Job::builder()
            .source("events", 4, Identity)
            .operator("count", 4, PaddedCounting)
            .edge("events", "count")
            .nodes(nodes)
            .routing_all_on_first()
            .policy(Policy::milp())
    };
    let mut job = padded(2)
        .transport(TransportOptions::Net(
            NetConfig::tcp(worker_bin()).compressed(true),
        ))
        .build_threaded()
        .expect("job starts");
    let (mut state_bytes, mut wire_bytes) = (0usize, 0usize);
    for p in 0..3u64 {
        for k in 0..12u64 {
            let n = 10 + (k * 3 + p) % 7;
            job.inject(
                "events",
                (0..n).map(|i| Tuple::keyed(&k, Value::Int(i as i64), p)),
            );
        }
        let report = job.step();
        assert!(report.apply.failed.is_empty(), "{:?}", report.apply.failed);
        state_bytes += report.apply.total_state_bytes();
        wire_bytes += report.apply.total_wire_bytes();
    }
    let rt = job.into_engine();
    let cnt = rt.topology().operator_by_name("count").unwrap();
    let probed: Vec<(KeyGroupId, u64)> = (0..rt.topology().num_key_groups())
        .map(KeyGroupId::new)
        .filter(|&g| rt.topology().operator_of_group(g) == cnt)
        .map(|g| {
            let count = rt.probe_state(g).map_or(0, |bytes| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&bytes[..8]);
                u64::from_le_bytes(arr)
            });
            (g, count)
        })
        .collect();
    rt.shutdown();
    assert_eq!(probed, expected_counts(&probed, 3));
    assert!(
        state_bytes > PADDED_STATE_PAD,
        "the padded counter must actually have migrated ({state_bytes} state bytes)"
    );
    assert!(
        wire_bytes < state_bytes / 4,
        "LZ4 must crush the 16 KiB constant padding: {wire_bytes} wire vs {state_bytes} raw"
    );
}

/// Kill a daemon process when the test is done with it (pass or panic).
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Launch a worker daemon pointed at `addr` the way an operator would on
/// another machine: environment only, no controller-side spawn.
fn spawn_daemon(addr: &str, node: u32, token: &str) -> KillOnDrop {
    KillOnDrop(
        Command::new(worker_bin())
            .env("ALBIC_WORKER_CONNECT", addr)
            .env("ALBIC_WORKER_NODE", node.to_string())
            .env("ALBIC_WORKER_TOKEN", token)
            .stdin(Stdio::null())
            .spawn()
            .expect("daemon launches"),
    )
}

/// Join mode: the controller spawns nothing. Externally launched daemons
/// dial in and authenticate with the shared token; a rogue daemon with
/// the wrong token is turned away and must not poison the slot it tried
/// to claim. The joined fabric then runs the workload exactly-once.
#[cfg(unix)]
#[test]
fn externally_launched_workers_join_with_token_auth() {
    let sock = std::env::temp_dir().join(format!("albic-join-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let addr = format!("uds:{}", sock.display());
    let token = "fabric-join-secret";

    // The rogue goes first, aiming at node 0 with a bad token.
    let _rogue = spawn_daemon(&addr, 0, "not-the-secret");
    let _workers: Vec<KillOnDrop> = (0..2u32).map(|n| spawn_daemon(&addr, n, token)).collect();

    let cfg = NetConfig::uds(worker_bin())
        .listen_on(sock.display().to_string())
        .with_token(token)
        .joinable(2)
        .join_deadline(Duration::from_secs(20));
    let probed = run_and_probe(two_stage(2).transport(TransportOptions::Net(cfg)));
    assert_eq!(probed, expected_counts(&probed, 3));
    assert!(probed.iter().any(|&(_, n)| n > 0), "counters actually ran");
}

/// A worker command that cannot launch must fail cleanly — the spawn
/// failure degrades that node to the crashed-worker path (no panic, no
/// hang), and building still returns.
#[test]
fn unlaunchable_worker_binary_fails_cleanly() {
    let result = two_stage(2)
        .transport(TransportOptions::Net(NetConfig::tcp(
            "/nonexistent/albic-worker",
        )))
        .build_threaded();
    // The listener binds fine; the spawn failure surfaces as instantly
    // dead workers, which recovery then reports — or, depending on
    // timing, the job starts and every step sees dead nodes. Either way
    // building must return (the spawn error path is exercised); give the
    // job a chance to observe the corpses and shut down.
    if let Ok(job) = result {
        let rt = job.into_engine();
        rt.shutdown();
    }
}
