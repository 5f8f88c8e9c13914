//! Property-based tests over the core invariants of the stack.

use albic::engine::operator::{Counting, Identity};
use albic::engine::tuple::{hash_key, Tuple, Value};
use albic::engine::{Migration, ReconfigPlan, RuntimeConfig};
use albic::job::{Job, Policy};
use albic::milp::{solve_milp, AllocationProblem, Budget, GroupSpec, MigrationBudget, SolveStatus};
use albic::partition::{partition, GraphBuilder, PartitionConfig};
use albic::types::{KeyGroupId, NodeId};
use proptest::prelude::*;

fn arb_problem() -> impl Strategy<Value = AllocationProblem> {
    (2usize..4, 2usize..7).prop_flat_map(|(nodes, groups)| {
        (
            proptest::collection::vec(1.0f64..20.0, groups),
            proptest::collection::vec(0.0f64..10.0, groups),
            proptest::collection::vec(0usize..nodes, groups),
            prop_oneof![
                (1usize..4).prop_map(MigrationBudget::Count),
                (1.0f64..30.0).prop_map(MigrationBudget::Cost),
                Just(MigrationBudget::Unlimited),
            ],
        )
            .prop_map(move |(loads, costs, current, budget)| AllocationProblem {
                num_nodes: nodes,
                killed: vec![false; nodes],
                capacity: vec![1.0; nodes],
                groups: loads
                    .into_iter()
                    .zip(costs)
                    .zip(current)
                    .map(|((load, migration_cost), current_node)| GroupSpec {
                        load,
                        migration_cost,
                        current_node,
                    })
                    .collect(),
                budget,
                collocate: vec![],
                pins: vec![],
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The structured solver's lower bound never exceeds the exact MILP
    /// optimum, and its achieved distance never beats it.
    #[test]
    fn structured_solver_brackets_exact_optimum(p in arb_problem()) {
        let (model, vars) = p.to_model();
        let exact = solve_milp(&model, &mut Budget::work(20_000)).unwrap();
        // Only check when the exact solver proved optimality.
        if matches!(exact.status, albic::milp::branch_bound::MilpStatus::Optimal) {
            let exact_d = exact.best.as_ref().unwrap().value(vars.d);
            let sol = p.solve(&mut Budget::unlimited());
            prop_assert!(sol.lower_bound <= exact_d + 1e-4,
                "bound {} exceeds exact {}", sol.lower_bound, exact_d);
            prop_assert!(sol.load_distance >= exact_d - 1e-4,
                "heuristic {} beat exact {}", sol.load_distance, exact_d);
        }
    }

    /// Solutions always satisfy the migration budget and assignment shape.
    #[test]
    fn solutions_respect_budget_and_shape(p in arb_problem()) {
        let sol = p.solve(&mut Budget::work(50_000));
        prop_assert_eq!(sol.assignment.len(), p.groups.len());
        prop_assert!(sol.assignment.iter().all(|&n| n < p.num_nodes));
        if sol.status != SolveStatus::Infeasible {
            match p.budget {
                MigrationBudget::Count(k) => prop_assert!(sol.migrations.len() <= k),
                MigrationBudget::Cost(c) => {
                    let spent: f64 = sol
                        .migrations
                        .iter()
                        .map(|&g| p.groups[g].migration_cost)
                        .sum();
                    prop_assert!(spent <= c + 1e-6, "spent {spent} over {c}");
                }
                MigrationBudget::Unlimited => {}
            }
        }
    }

    /// Lemma 1: the solver never migrates a group *into* a node marked for
    /// removal.
    #[test]
    fn lemma1_never_migrate_into_killed(mut p in arb_problem(), kill in 0usize..3) {
        let kill = kill % p.num_nodes;
        p.killed[kill] = true;
        // At least one alive node must remain.
        prop_assume!(p.killed.iter().filter(|k| !**k).count() >= 1);
        let sol = p.solve(&mut Budget::work(50_000));
        for &g in &sol.migrations {
            prop_assert_ne!(sol.assignment[g], kill,
                "group {} moved into killed node", g);
        }
    }

    /// Graph partitioner: assignments are complete, in range, and the
    /// reported weights/cut are consistent.
    #[test]
    fn partitioner_invariants(
        n in 2usize..40,
        k in 1usize..6,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 1.0f64..5.0), 0..80),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            if u < n && v < n {
                b.add_edge(u, v, w);
            }
        }
        let g = b.build();
        let part = partition(&g, &PartitionConfig::k(k));
        prop_assert_eq!(part.assignment.len(), n);
        prop_assert!(part.assignment.iter().all(|&x| x < k));
        let total: f64 = part.part_weights.iter().sum();
        prop_assert!((total - g.total_weight()).abs() < 1e-6);
        prop_assert_eq!(part.edge_cut, g.cut_kway(&part.assignment));
    }

    /// The batched data plane is invisible to delivery semantics: for any
    /// (batch size, channel capacity, tuple schedule), the batched
    /// runtime delivers exactly the same per-key-group tuple multiset as
    /// an unbatched (`batch_size = 1`) oracle run of the same schedule —
    /// including across a mid-stream migration — and the routing table
    /// invariants hold after every flush.
    #[test]
    fn batched_runtime_matches_unbatched_oracle(
        batch_size in 1usize..128,
        channel_capacity in 1usize..64,
        schedule in proptest::collection::vec((0u64..24, 1u32..24), 1..16),
    ) {
        let run = |cfg: RuntimeConfig| -> Result<(Vec<u64>, f64), proptest::TestCaseError> {
            let mut job = Job::builder()
                .source("events", 8, Identity)
                .operator("count", 8, Counting)
                .edge("events", "count")
                .nodes(2)
                .routing_all_on_first()
                .policy(Policy::noop())
                .runtime_config(cfg)
                .build_threaded()
                .expect("valid property job");
            let topology = job.engine().topology().clone();
            let cnt = topology.operator_by_name("count").unwrap();
            let half = schedule.len() / 2;
            let mut ts = 0u64;
            for (i, &(key, n)) in schedule.iter().enumerate() {
                job.inject(
                    "events",
                    (0..n).map(|_| {
                        ts += 1;
                        Tuple::keyed(&key, Value::Int(ts as i64), ts)
                    }),
                );
                // Mid-stream migration: move the first key's counter
                // group off the skewed node while tuples are in flight.
                if i == half {
                    let group = topology.group_for_key(cnt, hash_key(&schedule[0].0));
                    let report = job.apply(&ReconfigPlan {
                        migrations: vec![Migration { group, to: NodeId::new(1) }],
                        ..Default::default()
                    });
                    prop_assert!(report.failed.is_empty(), "{:?}", report.failed);
                }
                // Routing invariants after every flush: complete cover of
                // the key-group space, every entry on a live node, and
                // the per-node group lists partition the space.
                let routing = job.engine().routing_snapshot();
                prop_assert_eq!(routing.len() as u32, topology.num_key_groups());
                for (kg, node) in routing.iter() {
                    prop_assert!(
                        job.cluster().get(node).is_some(),
                        "group {:?} routed to unknown node {:?}", kg, node
                    );
                }
                let covered: usize = job
                    .cluster()
                    .nodes()
                    .iter()
                    .map(|n| routing.groups_on(n.id).len())
                    .sum();
                prop_assert_eq!(covered, routing.len());
            }
            job.settle();
            let counts: Vec<u64> = (0..topology.num_key_groups())
                .map(|g| {
                    let kg = KeyGroupId::new(g);
                    if topology.operator_of_group(kg) != cnt {
                        return 0;
                    }
                    job.engine()
                        .probe_state(kg)
                        .map(|b| {
                            let mut a = [0u8; 8];
                            a.copy_from_slice(&b[..8]);
                            u64::from_le_bytes(a)
                        })
                        .unwrap_or(0)
                })
                .collect();
            let stats = job.measure();
            let dropped = stats.dropped_tuples;
            job.shutdown();
            Ok((counts, dropped))
        };

        let cfg = RuntimeConfig {
            batch_size,
            channel_capacity,
            ..RuntimeConfig::default()
        };
        let (batched, dropped) = run(cfg)?;
        let (oracle, oracle_dropped) = run(RuntimeConfig {
            batch_size: 1,
            ..RuntimeConfig::default()
        })?;
        prop_assert_eq!(&batched, &oracle, "batched delivery diverged from the per-tuple oracle");
        prop_assert_eq!(dropped, 0.0);
        prop_assert_eq!(oracle_dropped, 0.0);

        // And both match the arithmetic ground truth.
        let total: u64 = schedule.iter().map(|&(_, n)| n as u64).sum();
        prop_assert_eq!(batched.iter().sum::<u64>(), total);
    }

    /// Checkpoint-based recovery is exactly-once: for any (checkpoint
    /// interval, fault step, batch size, tuple schedule), killing a
    /// worker mid-run and recovering from the latest checkpoint plus the
    /// inject-side log yields final counter states identical to the
    /// fault-free per-tuple oracle multiset, with nothing dropped.
    #[test]
    fn recovered_states_match_the_fault_free_oracle(
        checkpoint_interval in 1u64..4,
        fault_step in 0u64..4,
        batch_size in 1usize..64,
        schedule in proptest::collection::vec((0u64..24, 1u32..16), 1..12),
    ) {
        const PERIODS: u64 = 4;
        let mut job = Job::builder()
            .source("events", 8, Identity)
            .operator("count", 8, Counting)
            .edge("events", "count")
            .nodes(3)
            .checkpoint_interval(checkpoint_interval)
            .policy(Policy::noop())
            .runtime_config(RuntimeConfig {
                batch_size,
                ..RuntimeConfig::default()
            })
            .build_threaded()
            .expect("valid property job");
        let topology = job.engine().topology().clone();
        let cnt = topology.operator_by_name("count").unwrap();
        let victim = NodeId::new(1);
        let mut ts = 0u64;
        for p in 0..PERIODS {
            if p == fault_step {
                prop_assert!(job.engine_mut().inject_fault(victim));
            }
            for &(key, n) in &schedule {
                job.inject(
                    "events",
                    (0..n).map(|_| {
                        ts += 1;
                        Tuple::keyed(&key, Value::Int(ts as i64), ts)
                    }),
                );
            }
            let report = job.step();
            prop_assert_eq!(
                report.recovery.failed.len(),
                usize::from(p == fault_step),
                "recovery must happen exactly in the fault step"
            );
            prop_assert_eq!(report.stats.dropped_tuples, 0.0);
        }
        job.settle();

        // The fault-free oracle, computed per tuple: each scheduled tuple
        // increments its key's counter group exactly once per period.
        let mut expected = vec![0u64; topology.num_key_groups() as usize];
        for &(key, n) in &schedule {
            let kg = topology.group_for_key(cnt, hash_key(&key));
            expected[kg.index()] += n as u64 * PERIODS;
        }
        let counts: Vec<u64> = (0..topology.num_key_groups())
            .map(|g| {
                let kg = KeyGroupId::new(g);
                if topology.operator_of_group(kg) != cnt {
                    return 0;
                }
                job.engine()
                    .probe_state(kg)
                    .map(|b| {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(&b[..8]);
                        u64::from_le_bytes(a)
                    })
                    .unwrap_or(0)
            })
            .collect();
        prop_assert_eq!(&counts, &expected,
            "recovered states diverged from the fault-free oracle");
        prop_assert_eq!(job.cluster().len(), 2, "the corpse left the cluster");
        job.shutdown();
    }

    /// The engine's tuple codec round-trips arbitrary nested values.
    #[test]
    fn codec_roundtrips_values(s in "\\PC{0,24}", i in any::<i64>(), f in any::<f64>()) {
        use albic::engine::codec::{Reader, Writer};
        use albic::engine::tuple::Value;
        let v = Value::List(vec![
            Value::Str(s),
            Value::Int(i),
            if f.is_nan() { Value::Null } else { Value::Float(f) },
            Value::List(vec![Value::Null]),
        ]);
        let mut w = Writer::new();
        w.put_value(&v);
        let bytes = w.into_bytes();
        let back = Reader::new(&bytes).get_value().unwrap();
        prop_assert_eq!(back, v);
    }

    /// The transport's frame and body decoders fail closed on arbitrary
    /// bytes: whatever a peer writes into the socket, decoding returns an
    /// error instead of panicking or allocating attacker-sized buffers.
    #[test]
    fn frame_decoders_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        albic::engine::transport::fuzz_decode(&bytes);
    }

    /// The same with well-formed framing wrapped around a garbage body,
    /// so the fuzz gets past the length prefix and into every per-kind
    /// body decoder.
    #[test]
    fn frame_decoders_survive_framed_garbage(
        kind in 0u8..11,
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut framed = ((body.len() as u32) + 1).to_le_bytes().to_vec();
        framed.push(kind);
        framed.extend_from_slice(&body);
        albic::engine::transport::fuzz_decode(&framed);
    }

    /// A lossy-link model of the session layer: the sender produces
    /// numbered frames while its window has room, the link delivers an
    /// arbitrary prefix of the pending window and then dies, and the peers
    /// re-handshake RESUME style — the sender learns the receiver's
    /// contiguous delivery mark and replays from there. Between cuts the
    /// receiver consumes an arbitrary number of the frames it holds and
    /// acks only those, as a worker daemon does. Whatever the loss and
    /// consumption pattern, the receiver must end up having consumed
    /// every payload exactly once, in order; it never holds more than a
    /// window beyond what a resume credited early; and once it has
    /// consumed everything, its ack reopens the whole window.
    #[test]
    fn session_resume_replays_exactly_once(
        rounds in proptest::collection::vec((0usize..8, 0usize..10, 0usize..8), 1..12),
    ) {
        use albic::engine::transport::{RecvSequencer, SendSequencer, SeqVerdict};
        const WINDOW: usize = 6;
        let mut send = SendSequencer::new(WINDOW);
        let mut recv = RecvSequencer::new();
        let mut held: std::collections::VecDeque<u64> = Default::default();
        let mut consumed: Vec<u64> = Vec::new();
        let mut produced = 0u64;
        let deliver = |send: &SendSequencer,
                           recv: &mut RecvSequencer,
                           held: &mut std::collections::VecDeque<u64>,
                           lose: usize|
         -> Result<(), proptest::TestCaseError> {
            let window: Vec<(u64, Vec<u8>)> = send
                .pending(recv.delivered())
                .map(|(seq, _kind, body)| (seq, body.to_vec()))
                .collect();
            let surviving = window.len().saturating_sub(lose);
            for (seq, body) in window.into_iter().take(surviving) {
                match recv.accept(seq) {
                    SeqVerdict::Fresh => {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(&body[..8]);
                        held.push_back(u64::from_le_bytes(a));
                    }
                    SeqVerdict::Duplicate => {}
                    SeqVerdict::Gap => prop_assert!(false, "in-order link cannot gap"),
                }
            }
            Ok(())
        };
        for (produce, lose, consume) in rounds {
            for _ in 0..produce {
                if !send.has_room() {
                    break; // the writer waits for credit
                }
                send.push(3, produced.to_le_bytes().to_vec());
                produced += 1;
            }
            // The socket delivers the replay suffix minus a lost tail...
            deliver(&send, &mut recv, &mut held, lose)?;
            // ...the consumer takes some frames and acks only those...
            consumed.extend(held.drain(..consume.min(held.len())));
            let ack = recv.take_ack(held.len() as u64);
            prop_assert_eq!(ack, consumed.len() as u64);
            send.ack(ack);
            let early = send.acked().saturating_sub(consumed.len() as u64);
            prop_assert!(held.len() as u64 <= WINDOW as u64 + early, "more than a window held");
            // ...then the link dies; the RESUME handshake exchanges the
            // delivery mark, which must always be a valid resume point.
            prop_assert!(send.valid_resume_point(recv.delivered()));
            send.ack(recv.delivered());
        }
        // A final lossless replay drains whatever the last cut stranded,
        // and the consumer takes everything.
        deliver(&send, &mut recv, &mut held, 0)?;
        consumed.extend(held.drain(..));
        send.ack(recv.take_ack(0));
        prop_assert_eq!(send.pending(0).count(), 0, "the whole window reopens");
        prop_assert_eq!(consumed, (0..produced).collect::<Vec<u64>>(),
            "every frame consumed exactly once, in order");
    }
}

/// A fresh, collision-free spill directory for one property case.
fn prop_spill_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "albic-prop-spill-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental checkpoint store is indistinguishable from a full
    /// snapshot: for any interleaving of captures (with arbitrary dirty
    /// sets), abandoned gathers, compaction schedules, and spill
    /// configurations, `full_states()` always reproduces the live-state
    /// oracle map — base + deltas + spilled files lose and double
    /// nothing.
    #[test]
    fn checkpoint_store_matches_a_full_snapshot_oracle(
        max_layers in 1usize..6,
        cold_after in 1u64..4,
        spill in any::<bool>(),
        captures in proptest::collection::vec(
            (proptest::collection::vec((0u32..12, 1usize..48), 0..6), 0u8..10),
            1..20,
        ),
    ) {
        use albic::engine::checkpoint::{CheckpointMode, CheckpointStore, SpillConfig};
        use std::collections::{BTreeSet, HashMap};

        let dir = prop_spill_dir("store");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = spill.then(|| SpillConfig { dir: dir.clone(), cold_after });
        let mut store = CheckpointStore::new(CheckpointMode::Incremental, max_layers, cfg)
            .expect("spill directory creatable");
        let mut live: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut dirty: BTreeSet<u32> = BTreeSet::new();
        for (period, (writes, roll)) in captures.iter().enumerate() {
            for &(g, len) in writes {
                live.insert(g, vec![(period as u8) ^ (g as u8); len]);
                dirty.insert(g);
            }
            if *roll == 0 {
                // A worker died mid-gather: the capture is abandoned and
                // the next one is forced full.
                store.abandon();
                continue;
            }
            let full = store.wants_full();
            let states: Vec<(u32, Vec<u8>)> = if full {
                let mut all: Vec<_> = live.iter().map(|(&g, b)| (g, b.clone())).collect();
                all.sort_unstable_by_key(|(g, _)| *g);
                all
            } else {
                dirty.iter().map(|&g| (g, live[&g].clone())).collect()
            };
            store.ingest(period as u64, states, full);
            dirty.clear();

            let mut oracle: Vec<(u32, Vec<u8>)> =
                live.iter().map(|(&g, b)| (g, b.clone())).collect();
            oracle.sort_unstable_by_key(|(g, _)| *g);
            let restored = store.full_states().expect("spill segment readable");
            prop_assert_eq!(&restored, &oracle,
                "restore diverged at period {} (full={})", period, full);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: incremental checkpoints with a spill tier recover
    /// exactly-once for any (interval, fault step, cold threshold,
    /// schedule). The schedule starves half the keys after period 0 so
    /// groups actually go cold and spill, and the final probe faults them
    /// back in — the counts must match the arithmetic oracle.
    #[test]
    fn incremental_recovery_with_spill_matches_the_oracle(
        checkpoint_interval in 1u64..4,
        fault_step in 0u64..5,
        cold_after in 1u64..4,
        schedule in proptest::collection::vec((0u64..24, 1u32..12), 2..10),
    ) {
        use albic::engine::checkpoint::CheckpointMode;

        const PERIODS: u64 = 5;
        let dir = prop_spill_dir("e2e");
        let _ = std::fs::remove_dir_all(&dir);
        let mut job = Job::builder()
            .source("events", 8, Identity)
            .operator("count", 8, Counting)
            .edge("events", "count")
            .nodes(3)
            .checkpoint_interval(checkpoint_interval)
            .checkpoint_mode(CheckpointMode::Incremental)
            .spill_dir(dir.clone())
            .cold_after(cold_after)
            .policy(Policy::noop())
            .build_threaded()
            .expect("valid property job");
        let topology = job.engine().topology().clone();
        let cnt = topology.operator_by_name("count").unwrap();
        let victim = NodeId::new(1);
        let half = schedule.len() / 2;
        let mut ts = 0u64;
        for p in 0..PERIODS {
            if p == fault_step {
                prop_assert!(job.engine_mut().inject_fault(victim));
            }
            let active = if p == 0 { &schedule[..] } else { &schedule[..half] };
            for &(key, n) in active {
                job.inject(
                    "events",
                    (0..n).map(|_| {
                        ts += 1;
                        Tuple::keyed(&key, Value::Int(ts as i64), ts)
                    }),
                );
            }
            let report = job.step();
            prop_assert_eq!(
                report.recovery.failed.len(),
                usize::from(p == fault_step),
                "recovery must happen exactly in the fault step"
            );
            prop_assert_eq!(report.stats.dropped_tuples, 0.0);
        }
        job.settle();

        let mut expected = vec![0u64; topology.num_key_groups() as usize];
        for (i, &(key, n)) in schedule.iter().enumerate() {
            let kg = topology.group_for_key(cnt, hash_key(&key));
            let reps = if i < half { PERIODS } else { 1 };
            expected[kg.index()] += n as u64 * reps;
        }
        let counts: Vec<u64> = (0..topology.num_key_groups())
            .map(|g| {
                let kg = KeyGroupId::new(g);
                if topology.operator_of_group(kg) != cnt {
                    return 0;
                }
                job.engine()
                    .probe_state(kg)
                    .map(|b| {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(&b[..8]);
                        u64::from_le_bytes(a)
                    })
                    .unwrap_or(0)
            })
            .collect();
        prop_assert_eq!(&counts, &expected,
            "incremental + spill recovery diverged from the oracle");
        job.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
