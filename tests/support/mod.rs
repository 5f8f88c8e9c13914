//! Shared support for the differential suites (`tests/columnar.rs`,
//! `tests/epoch.rs`): the scripted workload, plan and state-probe
//! helpers, and a single-threaded **reference interpreter** of a
//! topology that the threaded runtime is checked against. Also the
//! deep windowed chain ([`deep_window_chain`]) that `tests/columnar.rs`
//! and `tests/transport.rs` settle period ends on.
//!
//! The reference runs every operator tuple by tuple through
//! [`Operator::process`](albic::engine::Operator::process) and
//! [`Operator::on_period_end`](albic::engine::Operator::on_period_end) —
//! no channels, no batching, no chunks, no migration — so it is correct
//! by inspection. It records the same raw per-period counters a runtime
//! worker records ([`StatsCollector`]) under one fixed routing table.

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use albic::engine::operator::{Counting, Emissions, Identity, Operator, StateBox};
use albic::engine::stats::StatsCollector;
use albic::engine::tuple::{Tuple, Value};
use albic::engine::{Migration, ReconfigPlan, RoutingTable, Runtime, Topology};
use albic::job::{Job, JobBuilder, Policy};
use albic::types::{KeyGroupId, NodeId, OperatorId};

/// Distinct keys of the scripted workload.
pub const KEYS: u64 = 24;
/// Cluster size of the differential jobs.
pub const NODES: usize = 3;

/// Deterministic skewed per-key tuple counts for one period.
pub fn tuples_of(key: u64, period: u64) -> u64 {
    1 + (key * 5 + period * 7) % 9
}

/// One period's scripted input: per key (in key order) its
/// [`tuples_of`] tuples. Suites inject each key's run with its own
/// `inject` call, so chunk boundaries fall mid-period.
pub fn period_input(period: u64) -> Vec<Vec<Tuple>> {
    (0..KEYS)
        .map(|k| {
            (0..tuples_of(k, period))
                .map(|i| Tuple::keyed(&k, Value::Int(i as i64), period))
                .collect()
        })
        .collect()
}

/// Tuples injected over `periods` periods of the scripted workload.
pub fn total_tuples(periods: u64) -> u64 {
    (0..periods)
        .flat_map(|p| (0..KEYS).map(move |k| tuples_of(k, p)))
        .sum()
}

/// Normalize one period's scripted `(group, node)` moves against
/// `routing` into a well-formed plan (no self-moves, no duplicate
/// groups), so every executor under test sees the *same* plan.
pub fn plan_of(routing: &RoutingTable, moves: &[(u32, u32)]) -> ReconfigPlan {
    let total = routing.len() as u32;
    let mut seen = Vec::new();
    let mut plan = ReconfigPlan::noop();
    for &(g, n) in moves {
        let kg = KeyGroupId::new(g % total);
        let to = NodeId::new(n % NODES as u32);
        if seen.contains(&kg) || routing.node_of(kg) == to {
            continue;
        }
        seen.push(kg);
        plan.migrations.push(Migration { group: kg, to });
    }
    plan
}

/// The routing a schedule must end in: every period's [`plan_of`]
/// applied in turn to `initial`.
pub fn scripted_routing(initial: &RoutingTable, schedule: &[Vec<(u32, u32)>]) -> Vec<NodeId> {
    let mut routing = initial.clone();
    for moves in schedule {
        for m in plan_of(&routing, moves).migrations {
            routing.reroute(m.group, m.to);
        }
    }
    routing.assignment().to_vec()
}

/// Serialized state of every key group, read back from the runtime; a
/// group holding no state reads as a fresh state's bytes (a migration
/// installs a fresh state for a group it moves before any tuple did).
pub fn final_states(rt: &Runtime) -> Vec<Vec<u8>> {
    let topology = rt.topology();
    (0..topology.num_key_groups())
        .map(|g| {
            let kg = KeyGroupId::new(g);
            rt.probe_state(kg).unwrap_or_else(|| {
                let logic = &topology.operator(topology.operator_of_group(kg)).logic;
                logic.serialize_state(&logic.new_state())
            })
        })
        .collect()
}

/// The per-group u64 counter states of the operator named `"count"` (0
/// for every other group).
pub fn final_counts(rt: &Runtime) -> Vec<u64> {
    counts_of(rt.topology(), &final_states(rt))
}

/// Decode the `"count"` operator's u64 counters out of per-group
/// serialized states (0 for every other group).
pub fn counts_of(topology: &Topology, states: &[Vec<u8>]) -> Vec<u64> {
    let cnt = topology
        .operator_by_name("count")
        .expect("a count operator");
    states
        .iter()
        .enumerate()
        .map(|(g, bytes)| {
            if topology.operator_of_group(KeyGroupId::new(g as u32)) != cnt {
                return 0;
            }
            u64::from_le_bytes(bytes[..8].try_into().expect("u64 counter state"))
        })
        .collect()
}

/// What the reference interpreter computed for one run.
pub struct Reference {
    /// Serialized final state of every key group (a fresh state's bytes
    /// for groups no tuple reached).
    pub states: Vec<Vec<u8>>,
    /// Per-period raw counters, exactly as the runtime's workers record
    /// them: tuples processed per group (`tuples_in`), group-to-group
    /// flows (`out_matrix`), the crossing part of those flows
    /// (`cross_out`/`cross_in`; the rest stayed on a node) and resident
    /// state sizes. Feed one to `PeriodStats::compute` for the signals a
    /// policy sees.
    pub periods: Vec<StatsCollector>,
}

/// Run `input` — per period, the tuples injected into each source
/// operator, in injection order — through `topology` one tuple at a
/// time. Flows are classified as crossing or staying under the fixed
/// `routing`. At each period end every group holding state runs its
/// `on_period_end` (in group order), and what it emits is processed
/// within the same period, as the runtime does before collecting
/// statistics.
pub fn run_reference(
    topology: &Topology,
    routing: &RoutingTable,
    input: &[Vec<(OperatorId, Vec<Tuple>)>],
) -> Reference {
    let mut interp = Interpreter {
        topology,
        routing,
        states: BTreeMap::new(),
        stats: StatsCollector::new(),
    };
    let mut periods = Vec::new();
    for period in input {
        for (op, tuples) in period {
            for tuple in tuples {
                interp.process(*op, tuple);
            }
        }
        periods.push(interp.end_period());
    }
    let states = (0..topology.num_key_groups())
        .map(|g| {
            let logic = interp.logic(KeyGroupId::new(g));
            match interp.states.get(&g) {
                Some(state) => logic.serialize_state(state),
                None => logic.serialize_state(&logic.new_state()),
            }
        })
        .collect();
    Reference { states, periods }
}

struct Interpreter<'a> {
    topology: &'a Topology,
    routing: &'a RoutingTable,
    states: BTreeMap<u32, StateBox>,
    stats: StatsCollector,
}

impl Interpreter<'_> {
    fn logic(&self, kg: KeyGroupId) -> Arc<dyn albic::engine::Operator> {
        Arc::clone(
            &self
                .topology
                .operator(self.topology.operator_of_group(kg))
                .logic,
        )
    }

    /// Process one tuple at operator `op`, then everything it emits,
    /// depth first.
    fn process(&mut self, op: OperatorId, tuple: &Tuple) {
        let kg = self.topology.group_for_key(op, tuple.key);
        let logic = self.logic(kg);
        let state = self
            .states
            .entry(kg.raw())
            .or_insert_with(|| logic.new_state());
        let mut out = Emissions::new();
        logic.process(tuple, state, &mut out);
        self.stats.record_processed(kg, 1.0, logic.cost_per_tuple());
        self.emit(op, kg, out);
    }

    /// Deliver `from`'s emissions to every downstream operator.
    fn emit(&mut self, op: OperatorId, from: KeyGroupId, mut out: Emissions) {
        let tuples = out.drain();
        let topology = self.topology;
        for &dop in topology.downstream(op) {
            for tuple in &tuples {
                let to = topology.group_for_key(dop, tuple.key);
                let crossed = self.routing.node_of(from) != self.routing.node_of(to);
                self.stats.record_comm(from, to, 1.0, crossed);
                self.process(dop, tuple);
            }
        }
    }

    /// Flush every window, record state sizes, and hand back this
    /// period's counters (state sizes and group costs carry over, as on
    /// a runtime worker).
    fn end_period(&mut self) -> StatsCollector {
        let groups: Vec<u32> = self.states.keys().copied().collect();
        for g in groups {
            let kg = KeyGroupId::new(g);
            let logic = self.logic(kg);
            let mut out = Emissions::new();
            logic.on_period_end(self.states.get_mut(&g).expect("listed"), &mut out);
            self.emit(self.topology.operator_of_group(kg), kg, out);
        }
        for (&g, state) in &self.states {
            let kg = KeyGroupId::new(g);
            let size = self.logic(kg).state_size(state);
            self.stats.set_state_bytes(kg, size as f64);
        }
        let snapshot = self.stats.clone();
        self.stats.reset();
        snapshot
    }
}

/// A tumbling count window: per key, how many tuples arrived this
/// period. At period end it emits one `(key, count)` tuple per key seen,
/// in key order, and clears.
pub struct WindowCount;

type WindowState = BTreeMap<u64, u64>;

impl Operator for WindowCount {
    fn name(&self) -> &str {
        "window-count"
    }
    fn new_state(&self) -> StateBox {
        Box::new(WindowState::new())
    }
    fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
        let window = state.downcast_ref::<WindowState>().expect("window state");
        window
            .iter()
            .flat_map(|(k, c)| k.to_le_bytes().into_iter().chain(c.to_le_bytes()))
            .collect()
    }
    fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        let window: WindowState = bytes
            .chunks_exact(16)
            .map(|pair| (word(&pair[..8]), word(&pair[8..])))
            .collect();
        Box::new(window)
    }
    fn process(&self, tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        let window = state.downcast_mut::<WindowState>().expect("window state");
        *window.entry(tuple.key).or_insert(0) += 1;
    }
    fn on_period_end(&self, state: &mut StateBox, out: &mut Emissions) {
        let window = state.downcast_mut::<WindowState>().expect("window state");
        for (&key, &count) in window.iter() {
            out.emit(Tuple::raw(key, Value::Int(count as i64), 0));
        }
        window.clear();
    }
    fn period_end_mutates(&self) -> bool {
        true
    }
}

/// An identity operator that sleeps 100 µs per tuple: emissions crossing
/// a chain of these stay in flight for many barrier rounds.
pub struct SlowHop;

impl Operator for SlowHop {
    fn name(&self) -> &str {
        "slow-hop"
    }
    fn new_state(&self) -> StateBox {
        Box::new(())
    }
    fn serialize_state(&self, _state: &StateBox) -> Vec<u8> {
        Vec::new()
    }
    fn deserialize_state(&self, _bytes: &[u8]) -> StateBox {
        Box::new(())
    }
    fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
        std::thread::sleep(std::time::Duration::from_micros(100));
        out.emit(tuple.clone());
    }
}

/// [`SlowHop`]s between the window and the counter of [`deep_window_chain`].
pub const DEEP_HOPS: u32 = 7;

/// `events → window → 7 slow hops → count` on `nodes` workers, 4 key
/// groups per operator: the events round-robin, the window
/// ([`WindowCount`]) on node 0, then the hops ([`SlowHop`]) and the
/// counter alternating nodes 1 and 0. After the window flush every
/// period-end emission crosses workers eight times, slowly.
pub fn deep_window_chain(nodes: usize) -> JobBuilder {
    let groups = 4u32;
    let mut assignment: Vec<u32> = (0..groups).map(|g| g % nodes as u32).collect();
    assignment.extend([0; 4]);
    let mut job = Job::builder()
        .source("events", groups, Identity)
        .operator("window", groups, WindowCount)
        .edge("events", "window");
    let mut prev = "window".to_string();
    for hop in 1..=DEEP_HOPS {
        let name = format!("hop{hop}");
        job = job
            .operator(name.clone(), groups, SlowHop)
            .edge(prev, name.clone());
        assignment.extend([hop % 2; 4]);
        prev = name;
    }
    assignment.extend([(DEEP_HOPS + 1) % 2; 4]);
    job.operator("count", groups, Counting)
        .edge(prev, "count")
        .nodes(nodes)
        .routing_assignment(assignment)
        .policy(Policy::noop())
}
