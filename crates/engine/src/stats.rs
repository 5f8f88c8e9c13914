//! Per-period statistics: `gLoad_k`, `load_i`, the `out(g_i, g_j)` matrix,
//! bottleneck-resource selection (§3, *Statistics*).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use albic_types::{KeyGroupId, Load, LoadVector, NodeId, Period, Resource};

use crate::cluster::Cluster;
use crate::cost::CostModel;

/// Deterministic multiply-xor hasher (FxHash-style) for the per-tuple
/// counter maps. These maps sit on the runtime's hot path — several
/// lookups per processed tuple — and their keys are internal `u32` ids,
/// so SipHash's DoS resistance buys nothing while costing ~4× per
/// operation. Summation over the maps stays exact regardless of
/// iteration order because every counter is an integer-valued `f64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

const FAST_HASH_K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(FAST_HASH_K);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ v as u64).wrapping_mul(FAST_HASH_K);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FAST_HASH_K);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` over the fast deterministic hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Raw per-worker counters accumulated during one statistics period.
///
/// Both the threaded runtime (per worker, merged at period end) and the
/// simulator (directly) fill one of these; [`PeriodStats::compute`] turns
/// the counters into loads using the [`CostModel`].
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    /// Tuples processed per key group.
    pub tuples_in: FastMap<u32, f64>,
    /// Tuples arriving from another node, per key group.
    pub cross_in: FastMap<u32, f64>,
    /// Tuples sent to another node, per key group.
    pub cross_out: FastMap<u32, f64>,
    /// `out(g_i, g_j)`: tuples sent from group i to group j (collocated or
    /// not).
    pub out_matrix: FastMap<(u32, u32), f64>,
    /// Resident state bytes per key group.
    pub state_bytes: FastMap<u32, f64>,
    /// Relative CPU cost multiplier per key group (operator dependent).
    pub group_cost: FastMap<u32, f64>,
    /// Tuples this worker dequeued from its inbox (data-plane ingest).
    pub ingested: f64,
    /// Tuples this worker handed to *other* workers (data-plane emit).
    pub emitted: f64,
    /// Tuples that could not be delivered because their destination
    /// worker was gone — surfaced, never silently discarded.
    pub dropped: f64,
}

impl StatsCollector {
    /// Fresh empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` tuples processed by group `kg` whose operator has the
    /// given CPU multiplier.
    #[inline]
    pub fn record_processed(&mut self, kg: KeyGroupId, n: f64, op_cost: f64) {
        *self.tuples_in.entry(kg.raw()).or_insert(0.0) += n;
        self.group_cost.insert(kg.raw(), op_cost);
    }

    /// Record `n` tuples flowing from `from` to `to`; `crossed` marks
    /// whether the flow crossed a node boundary.
    #[inline]
    pub fn record_comm(&mut self, from: KeyGroupId, to: KeyGroupId, n: f64, crossed: bool) {
        *self.out_matrix.entry((from.raw(), to.raw())).or_insert(0.0) += n;
        if crossed {
            *self.cross_out.entry(from.raw()).or_insert(0.0) += n;
            *self.cross_in.entry(to.raw()).or_insert(0.0) += n;
        }
    }

    /// Set the resident state size of a group.
    pub fn set_state_bytes(&mut self, kg: KeyGroupId, bytes: f64) {
        self.state_bytes.insert(kg.raw(), bytes);
    }

    /// Forget a group's state size — called when its state leaves this
    /// collector's worker (migration source), so the stale entry cannot
    /// race the destination's fresh measurement at merge time.
    pub fn clear_state_bytes(&mut self, kg: KeyGroupId) {
        self.state_bytes.remove(&kg.raw());
    }

    /// Record `n` tuples dequeued from the data plane (channel ingest).
    #[inline]
    pub fn record_ingest(&mut self, n: f64) {
        self.ingested += n;
    }

    /// Record `n` tuples handed off to another worker (channel emit).
    #[inline]
    pub fn record_emit(&mut self, n: f64) {
        self.emitted += n;
    }

    /// Record `n` tuples whose destination worker was unreachable.
    #[inline]
    pub fn record_dropped(&mut self, n: f64) {
        self.dropped += n;
    }

    /// Merge another collector (e.g. a different worker's) into this one.
    pub fn merge(&mut self, other: &StatsCollector) {
        for (&k, &v) in &other.tuples_in {
            *self.tuples_in.entry(k).or_insert(0.0) += v;
        }
        for (&k, &v) in &other.cross_in {
            *self.cross_in.entry(k).or_insert(0.0) += v;
        }
        for (&k, &v) in &other.cross_out {
            *self.cross_out.entry(k).or_insert(0.0) += v;
        }
        for (&k, &v) in &other.out_matrix {
            *self.out_matrix.entry(k).or_insert(0.0) += v;
        }
        for (&k, &v) in &other.state_bytes {
            self.state_bytes.insert(k, v);
        }
        for (&k, &v) in &other.group_cost {
            self.group_cost.insert(k, v);
        }
        self.ingested += other.ingested;
        self.emitted += other.emitted;
        self.dropped += other.dropped;
    }

    /// Clear all counters for the next period.
    pub fn reset(&mut self) {
        self.tuples_in.clear();
        self.cross_in.clear();
        self.cross_out.clear();
        self.out_matrix.clear();
        self.ingested = 0.0;
        self.emitted = 0.0;
        self.dropped = 0.0;
        // State sizes persist across periods (state is resident);
        // group costs likewise.
    }
}

/// Per-worker data-plane pressure for one period — the backpressure signal
/// the batched runtime exports alongside the load statistics, so scaling
/// policies can observe *real* queueing instead of only modeled rates.
///
/// The simulator has no channels, so simulated [`PeriodStats`] carry an
/// empty pressure map; decision-relevant signals (loads, flows, state
/// sizes) stay substrate-identical, which `tests/substrate_equivalence.rs`
/// pins.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodePressure {
    /// Tuples the worker dequeued from its inbox this period.
    pub ingested: f64,
    /// Tuples the worker handed to other workers this period.
    pub emitted: f64,
    /// Tuples whose destination worker was unreachable (surfaced drops).
    pub dropped: f64,
    /// Data batches still queued in the worker's inbox at period end.
    /// A networked worker's queue figures are its controller-side stub's
    /// inbox: chunks not yet written to the socket, which fills once the
    /// daemon falls a session window behind.
    pub queue_depth: usize,
    /// Largest queued-batch count observed during the period (at least
    /// `queue_depth`).
    pub peak_queue_depth: usize,
    /// Batches enqueued past `channel_capacity` after the bounded
    /// backpressure wait expired (deadlock-avoidance overshoot).
    pub overflow: u64,
}

/// The statistics snapshot handed to reconfiguration policies at the end of
/// every period.
#[derive(Debug, Clone)]
pub struct PeriodStats {
    /// The period these statistics cover.
    pub period: Period,
    /// The system-wide bottleneck resource this period.
    pub bottleneck: Resource,
    /// Measured multi-resource load per node (capacity-normalized).
    pub node_loads: HashMap<NodeId, LoadVector>,
    /// `gLoad_k`: bottleneck-resource load mass per key group
    /// (capacity-*un*normalized; divide by the hosting node's capacity to
    /// get its load contribution).
    pub group_loads: Vec<f64>,
    /// Resident state bytes per key group.
    pub group_state_bytes: Vec<f64>,
    /// `out(g_i, g_j)` tuple rates.
    pub out_matrix: FastMap<(u32, u32), f64>,
    /// `out(g_i)`: total output rate per key group.
    pub out_total: Vec<f64>,
    /// Allocation snapshot: hosting node per key group.
    pub allocation: Vec<NodeId>,
    /// Total tuples processed system-wide.
    pub total_tuples: f64,
    /// Total inter-group tuples that crossed node boundaries.
    pub cross_tuples: f64,
    /// Total inter-group tuples (crossing or not).
    pub comm_tuples: f64,
    /// Tuples that could not be delivered this period because their
    /// destination worker was gone. Always 0 on the simulator; the
    /// threaded runtime surfaces every discard here instead of silently
    /// dropping (`let _ = send(..)`).
    pub dropped_tuples: f64,
    /// Per-worker data-plane pressure (ingest/emit rates, queue depths).
    /// Empty on the simulator; see [`NodePressure`].
    pub pressure: HashMap<NodeId, NodePressure>,
}

impl PeriodStats {
    /// Compute the snapshot from raw counters.
    pub fn compute(
        period: Period,
        collector: &StatsCollector,
        allocation: Vec<NodeId>,
        cluster: &Cluster,
        cost: &CostModel,
    ) -> PeriodStats {
        let num_groups = allocation.len();
        let mut per_group = vec![LoadVector::ZERO; num_groups];
        let mut total_tuples = 0.0;

        for g in 0..num_groups {
            let key = g as u32;
            let tuples = collector.tuples_in.get(&key).copied().unwrap_or(0.0);
            let op_cost = collector.group_cost.get(&key).copied().unwrap_or(1.0);
            let cin = collector.cross_in.get(&key).copied().unwrap_or(0.0);
            let cout = collector.cross_out.get(&key).copied().unwrap_or(0.0);
            let state = collector.state_bytes.get(&key).copied().unwrap_or(0.0);
            total_tuples += tuples;

            let cpu = cost.processing_load(tuples, op_cost)
                + cost.serialization_load(cout)
                + cost.deserialization_load(cin);
            let net = cost.network_load(cin + cout);
            let mem = cost.memory_load(state);
            per_group[g] = LoadVector::new(Load::new(cpu), Load::new(net), Load::new(mem));
        }

        // Node loads: sum of resident groups' masses over node capacity.
        let mut node_loads: HashMap<NodeId, LoadVector> = cluster
            .nodes()
            .iter()
            .map(|n| (n.id, LoadVector::ZERO))
            .collect();
        for (g, vec) in per_group.iter().enumerate() {
            let node = allocation[g];
            let cap = cluster.get(node).map(|n| n.capacity).unwrap_or(1.0);
            let entry = node_loads.entry(node).or_insert(LoadVector::ZERO);
            for r in Resource::ALL {
                *entry.get_mut(r) += vec.get(r) / cap;
            }
        }

        // Bottleneck: the resource with the greatest total usage.
        let mut totals = LoadVector::ZERO;
        for v in node_loads.values() {
            totals += *v;
        }
        let bottleneck = totals.dominant();

        let group_loads: Vec<f64> = per_group
            .iter()
            .map(|v| v.get(bottleneck).value())
            .collect();
        let group_state_bytes: Vec<f64> = (0..num_groups)
            .map(|g| {
                collector
                    .state_bytes
                    .get(&(g as u32))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();

        let mut out_total = vec![0.0; num_groups];
        let mut comm_tuples = 0.0;
        for (&(from, _to), &n) in &collector.out_matrix {
            out_total[from as usize] += n;
            comm_tuples += n;
        }
        let cross_tuples: f64 = collector.cross_out.values().sum();

        PeriodStats {
            period,
            bottleneck,
            node_loads,
            group_loads,
            group_state_bytes,
            out_matrix: collector.out_matrix.clone(),
            out_total,
            allocation,
            total_tuples,
            cross_tuples,
            comm_tuples,
            dropped_tuples: collector.dropped,
            pressure: HashMap::new(),
        }
    }

    /// Deepest data-plane queue across all workers at period end — the
    /// scalar backpressure signal (0 when no pressure was exported, e.g.
    /// on the simulator).
    pub fn max_queue_depth(&self) -> usize {
        self.pressure
            .values()
            .map(|p| p.queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Total data batches queued across all workers at period end.
    pub fn total_backlog(&self) -> usize {
        self.pressure.values().map(|p| p.queue_depth).sum()
    }

    /// Bottleneck-resource load of a node (0 if unknown).
    pub fn load_of(&self, node: NodeId) -> f64 {
        self.node_loads
            .get(&node)
            .map(|v| v.get(self.bottleneck).value())
            .unwrap_or(0.0)
    }

    /// The paper's `mean`: total load divided by the number of alive nodes
    /// (killed nodes' load counts in the numerator).
    pub fn mean_load(&self, cluster: &Cluster) -> f64 {
        let alive = cluster.alive().count();
        if alive == 0 {
            return 0.0;
        }
        let total: f64 = cluster.nodes().iter().map(|n| self.load_of(n.id)).sum();
        total / alive as f64
    }

    /// The paper's *load distance* metric: the largest deviation of any
    /// alive node's load from the mean.
    pub fn load_distance(&self, cluster: &Cluster) -> f64 {
        let mean = self.mean_load(cluster);
        cluster
            .alive()
            .map(|n| (self.load_of(n.id) - mean).abs())
            .fold(0.0, f64::max)
    }

    /// Total bottleneck-resource load across all nodes (the numerator of
    /// the *load index* metric).
    pub fn total_system_load(&self) -> f64 {
        self.node_loads
            .values()
            .map(|v| v.get(self.bottleneck).value())
            .sum()
    }

    /// Fraction (0-100%) of inter-group traffic that stayed on one node —
    /// the *collocation factor* plotted in Figs 10-14.
    pub fn collocation_factor(&self) -> f64 {
        if self.comm_tuples <= 0.0 {
            return 100.0;
        }
        100.0 * (self.comm_tuples - self.cross_tuples) / self.comm_tuples
    }

    /// `out(g_i, g_j)` lookup.
    pub fn out_rate(&self, from: KeyGroupId, to: KeyGroupId) -> f64 {
        self.out_matrix
            .get(&(from.raw(), to.raw()))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector_with(groups: &[(u32, f64)]) -> StatsCollector {
        let mut c = StatsCollector::new();
        for &(g, n) in groups {
            c.record_processed(KeyGroupId::new(g), n, 1.0);
        }
        c
    }

    #[test]
    fn node_loads_sum_group_masses() {
        let cluster = Cluster::homogeneous(2);
        let cost = CostModel::default();
        let mut c = collector_with(&[(0, 1000.0), (1, 3000.0)]);
        c.set_state_bytes(KeyGroupId::new(0), 1024.0);
        let alloc = vec![NodeId::new(0), NodeId::new(1)];
        let stats = PeriodStats::compute(Period(0), &c, alloc, &cluster, &cost);

        let l0 = stats.load_of(NodeId::new(0));
        let l1 = stats.load_of(NodeId::new(1));
        assert!(l1 > l0, "node 1 hosts the hotter group");
        assert!((l1 / l0 - 3.0).abs() < 1e-9, "loads proportional to tuples");
        assert_eq!(stats.bottleneck, Resource::Cpu);
    }

    #[test]
    fn load_distance_and_mean() {
        let cluster = Cluster::homogeneous(2);
        let cost = CostModel::default();
        let c = collector_with(&[(0, 4000.0), (1, 0.0)]);
        let alloc = vec![NodeId::new(0), NodeId::new(1)];
        let stats = PeriodStats::compute(Period(0), &c, alloc, &cluster, &cost);
        let mean = stats.mean_load(&cluster);
        let d = stats.load_distance(&cluster);
        assert!(
            (d - mean).abs() < 1e-9,
            "one empty node: distance equals mean"
        );
    }

    #[test]
    fn killed_nodes_count_in_mean_numerator_only() {
        let mut cluster = Cluster::homogeneous(2);
        cluster.mark_for_removal(NodeId::new(1));
        let cost = CostModel::default();
        let c = collector_with(&[(0, 2000.0), (1, 2000.0)]);
        let alloc = vec![NodeId::new(0), NodeId::new(1)];
        let stats = PeriodStats::compute(Period(0), &c, alloc, &cluster, &cost);
        // mean = (load0 + load1) / 1 alive.
        let expected = stats.load_of(NodeId::new(0)) + stats.load_of(NodeId::new(1));
        assert!((stats.mean_load(&cluster) - expected).abs() < 1e-9);
    }

    #[test]
    fn cross_node_communication_adds_cpu_and_network() {
        let cluster = Cluster::homogeneous(2);
        let cost = CostModel::default();
        let alloc = vec![NodeId::new(0), NodeId::new(1)];

        // Same tuple counts; one collector with crossing comm, one without.
        let mut local = collector_with(&[(0, 1000.0), (1, 1000.0)]);
        local.record_comm(KeyGroupId::new(0), KeyGroupId::new(1), 500.0, false);
        let mut crossing = collector_with(&[(0, 1000.0), (1, 1000.0)]);
        crossing.record_comm(KeyGroupId::new(0), KeyGroupId::new(1), 500.0, true);

        let s_local = PeriodStats::compute(Period(0), &local, alloc.clone(), &cluster, &cost);
        let s_cross = PeriodStats::compute(Period(0), &crossing, alloc, &cluster, &cost);
        assert!(s_cross.total_system_load() > s_local.total_system_load());
        assert_eq!(s_local.collocation_factor(), 100.0);
        assert_eq!(s_cross.collocation_factor(), 0.0);
    }

    #[test]
    fn heterogeneous_capacity_normalizes_node_load() {
        let cluster = Cluster::with_capacities(&[2.0, 1.0]);
        let cost = CostModel::default();
        let c = collector_with(&[(0, 2000.0), (1, 1000.0)]);
        let alloc = vec![NodeId::new(0), NodeId::new(1)];
        let stats = PeriodStats::compute(Period(0), &c, alloc, &cluster, &cost);
        // Node 0 processes twice the tuples on twice the capacity → equal load.
        assert!((stats.load_of(NodeId::new(0)) - stats.load_of(NodeId::new(1))).abs() < 1e-9);
        assert!(stats.load_distance(&cluster) < 1e-9);
    }

    #[test]
    fn memory_bottleneck_detection() {
        let cluster = Cluster::homogeneous(1);
        let cost = CostModel::default();
        let mut c = StatsCollector::new();
        // Tiny tuple counts, huge state.
        c.record_processed(KeyGroupId::new(0), 1.0, 1.0);
        c.set_state_bytes(KeyGroupId::new(0), cost.mem_capacity * 0.9);
        let stats = PeriodStats::compute(Period(0), &c, vec![NodeId::new(0)], &cluster, &cost);
        assert_eq!(stats.bottleneck, Resource::Memory);
        assert!(stats.group_loads[0] > 80.0);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = collector_with(&[(0, 10.0)]);
        let b = collector_with(&[(0, 5.0), (1, 2.0)]);
        a.merge(&b);
        assert_eq!(a.tuples_in[&0], 15.0);
        assert_eq!(a.tuples_in[&1], 2.0);
    }

    #[test]
    fn reset_clears_flow_counters_but_keeps_state_sizes() {
        let mut c = collector_with(&[(0, 10.0)]);
        c.set_state_bytes(KeyGroupId::new(0), 100.0);
        c.record_comm(KeyGroupId::new(0), KeyGroupId::new(1), 3.0, true);
        c.reset();
        assert!(c.tuples_in.is_empty());
        assert!(c.out_matrix.is_empty());
        assert_eq!(c.state_bytes[&0], 100.0);
    }

    #[test]
    fn pressure_counters_merge_and_reset() {
        let mut a = StatsCollector::new();
        a.record_ingest(10.0);
        a.record_emit(4.0);
        a.record_dropped(1.0);
        let mut b = StatsCollector::new();
        b.record_ingest(5.0);
        b.record_dropped(2.0);
        a.merge(&b);
        assert_eq!(a.ingested, 15.0);
        assert_eq!(a.emitted, 4.0);
        assert_eq!(a.dropped, 3.0);

        let cluster = Cluster::homogeneous(1);
        let stats = PeriodStats::compute(
            Period(0),
            &a,
            vec![NodeId::new(0)],
            &cluster,
            &CostModel::default(),
        );
        assert_eq!(stats.dropped_tuples, 3.0);
        assert!(stats.pressure.is_empty(), "pressure is runtime-filled");
        assert_eq!(stats.max_queue_depth(), 0);
        assert_eq!(stats.total_backlog(), 0);

        a.reset();
        assert_eq!((a.ingested, a.emitted, a.dropped), (0.0, 0.0, 0.0));
    }

    #[test]
    fn pressure_scalars_read_the_deepest_queue() {
        let c = collector_with(&[(0, 1.0)]);
        let cluster = Cluster::homogeneous(2);
        let mut stats = PeriodStats::compute(
            Period(0),
            &c,
            vec![NodeId::new(0)],
            &cluster,
            &CostModel::default(),
        );
        stats.pressure.insert(
            NodeId::new(0),
            NodePressure {
                queue_depth: 3,
                ..Default::default()
            },
        );
        stats.pressure.insert(
            NodeId::new(1),
            NodePressure {
                queue_depth: 7,
                peak_queue_depth: 12,
                ..Default::default()
            },
        );
        assert_eq!(stats.max_queue_depth(), 7);
        assert_eq!(stats.total_backlog(), 10);
    }

    #[test]
    fn out_rate_and_totals() {
        let cluster = Cluster::homogeneous(1);
        let cost = CostModel::default();
        let mut c = collector_with(&[(0, 10.0), (1, 10.0)]);
        c.record_comm(KeyGroupId::new(0), KeyGroupId::new(1), 7.0, false);
        let stats = PeriodStats::compute(
            Period(0),
            &c,
            vec![NodeId::new(0), NodeId::new(0)],
            &cluster,
            &cost,
        );
        assert_eq!(stats.out_rate(KeyGroupId::new(0), KeyGroupId::new(1)), 7.0);
        assert_eq!(stats.out_total[0], 7.0);
        assert_eq!(stats.out_total[1], 0.0);
    }
}
