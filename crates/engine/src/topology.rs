//! Operator networks: directed acyclic graphs of operators with
//! per-operator key-group spaces.
//!
//! A job is `⟨O, E⟩` (§3, *Query Model*): vertices are operators, edges are
//! streams. Each operator's input keys are hashed into a fixed number of
//! key groups; key group ids are *global* across the job (the allocation
//! algorithms treat all groups uniformly), and the topology records which
//! operator owns which id range.

use std::sync::Arc;

use albic_types::{KeyGroupId, OperatorId};

use crate::operator::Operator;
use crate::tuple::Key;

/// One operator in the topology.
#[derive(Clone)]
pub struct OperatorSpec {
    /// Operator id (dense, assigned by the builder).
    pub id: OperatorId,
    /// Display name.
    pub name: String,
    /// Number of key groups this operator's key space is hashed into.
    pub key_groups: u32,
    /// The user logic.
    pub logic: Arc<dyn Operator>,
    /// `true` if this operator receives external input (a `src` operator).
    pub is_source: bool,
}

impl std::fmt::Debug for OperatorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorSpec")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("key_groups", &self.key_groups)
            .field("is_source", &self.is_source)
            .finish()
    }
}

/// Topology construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge referenced an unknown operator.
    UnknownOperator(u32),
    /// The graph contains a cycle.
    Cyclic,
    /// An operator has zero key groups.
    NoKeyGroups(u32),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownOperator(i) => write!(f, "edge references unknown operator O{i}"),
            TopologyError::Cyclic => write!(f, "operator network must be acyclic"),
            TopologyError::NoKeyGroups(i) => write!(f, "operator O{i} declares zero key groups"),
        }
    }
}
impl std::error::Error for TopologyError {}

/// Builder for [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    operators: Vec<OperatorSpec>,
    edges: Vec<(OperatorId, OperatorId)>,
}

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a non-source operator; returns its id.
    pub fn operator(
        &mut self,
        name: impl Into<String>,
        key_groups: u32,
        logic: Arc<dyn Operator>,
    ) -> OperatorId {
        self.push(name, key_groups, logic, false)
    }

    /// Add a source operator (receives external input); returns its id.
    pub fn source(
        &mut self,
        name: impl Into<String>,
        key_groups: u32,
        logic: Arc<dyn Operator>,
    ) -> OperatorId {
        self.push(name, key_groups, logic, true)
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        key_groups: u32,
        logic: Arc<dyn Operator>,
        is_source: bool,
    ) -> OperatorId {
        let id = OperatorId::new(self.operators.len() as u32);
        self.operators.push(OperatorSpec {
            id,
            name: name.into(),
            key_groups,
            logic,
            is_source,
        });
        id
    }

    /// Add a stream from `from` to `to`.
    pub fn edge(&mut self, from: OperatorId, to: OperatorId) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Validate and build the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let n = self.operators.len();
        for op in &self.operators {
            if op.key_groups == 0 {
                return Err(TopologyError::NoKeyGroups(op.id.raw()));
            }
        }
        for &(a, b) in &self.edges {
            if a.index() >= n {
                return Err(TopologyError::UnknownOperator(a.raw()));
            }
            if b.index() >= n {
                return Err(TopologyError::UnknownOperator(b.raw()));
            }
        }
        // Kahn's algorithm for cycle detection.
        let mut indegree = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            indegree[b.index()] += 1;
            out[a.index()].push(b.index());
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(v) = queue.pop() {
            visited += 1;
            for &u in &out[v] {
                indegree[u] -= 1;
                if indegree[u] == 0 {
                    queue.push(u);
                }
            }
        }
        if visited != n {
            return Err(TopologyError::Cyclic);
        }

        let mut kg_offset = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for op in &self.operators {
            kg_offset.push(acc);
            acc += op.key_groups;
        }
        kg_offset.push(acc);

        let mut downstream: Vec<Vec<OperatorId>> = vec![Vec::new(); n];
        let mut upstream: Vec<Vec<OperatorId>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            downstream[a.index()].push(b);
            upstream[b.index()].push(a);
        }

        Ok(Topology {
            operators: self.operators,
            edges: self.edges,
            kg_offset,
            downstream,
            upstream,
        })
    }
}

/// An immutable, validated operator network.
#[derive(Debug, Clone)]
pub struct Topology {
    operators: Vec<OperatorSpec>,
    edges: Vec<(OperatorId, OperatorId)>,
    /// `kg_offset[i]..kg_offset[i+1]` = global key-group ids of operator i.
    kg_offset: Vec<u32>,
    downstream: Vec<Vec<OperatorId>>,
    upstream: Vec<Vec<OperatorId>>,
}

impl Topology {
    /// All operators.
    pub fn operators(&self) -> &[OperatorSpec] {
        &self.operators
    }

    /// One operator's spec.
    pub fn operator(&self, id: OperatorId) -> &OperatorSpec {
        &self.operators[id.index()]
    }

    /// All streams.
    pub fn edges(&self) -> &[(OperatorId, OperatorId)] {
        &self.edges
    }

    /// Downstream neighbors of an operator.
    pub fn downstream(&self, id: OperatorId) -> &[OperatorId] {
        &self.downstream[id.index()]
    }

    /// Upstream neighbors of an operator.
    pub fn upstream(&self, id: OperatorId) -> &[OperatorId] {
        &self.upstream[id.index()]
    }

    /// Total number of key groups across all operators.
    pub fn num_key_groups(&self) -> u32 {
        *self.kg_offset.last().unwrap_or(&0)
    }

    /// Global key-group id range of an operator.
    pub fn groups_of(&self, id: OperatorId) -> std::ops::Range<u32> {
        self.kg_offset[id.index()]..self.kg_offset[id.index() + 1]
    }

    /// The key group of `key` within operator `id`.
    pub fn group_for_key(&self, id: OperatorId, key: Key) -> KeyGroupId {
        let base = self.kg_offset[id.index()];
        let span = self.operators[id.index()].key_groups as u64;
        KeyGroupId::new(base + (key % span) as u32)
    }

    /// The operator owning a global key-group id.
    pub fn operator_of_group(&self, kg: KeyGroupId) -> OperatorId {
        let g = kg.raw();
        // kg_offset is sorted; binary search for the owning range.
        let idx = match self.kg_offset.binary_search(&g) {
            Ok(i) => {
                // `g` is the first group of operator i — but the final
                // sentinel offset must map to the last operator.
                i.min(self.operators.len() - 1)
            }
            Err(i) => i - 1,
        };
        debug_assert!(
            self.groups_of(OperatorId::new(idx as u32)).contains(&g),
            "group {g} resolved to wrong operator {idx}"
        );
        OperatorId::new(idx as u32)
    }

    /// Ids of the source operators.
    pub fn sources(&self) -> impl Iterator<Item = OperatorId> + '_ {
        self.operators.iter().filter(|o| o.is_source).map(|o| o.id)
    }

    /// Look up an operator by display name.
    pub fn operator_by_name(&self, name: &str) -> Option<OperatorId> {
        self.operators.iter().find(|o| o.name == name).map(|o| o.id)
    }

    /// Number of stream hops on the longest operator chain (0 for a single
    /// operator). The topology is a DAG, so this is the longest-path length
    /// — the number of forwarding rounds a tuple needs to traverse the job,
    /// which bounds the threaded runtime's quiesce rounds.
    pub fn depth(&self) -> usize {
        let n = self.operators.len();
        let mut depth = vec![0usize; n];
        // kg_offset order is insertion order; process in topological order
        // by repeatedly relaxing edges (n passes suffice for a DAG).
        for _ in 0..n {
            for &(a, b) in &self.edges {
                if depth[a.index()] + 1 > depth[b.index()] {
                    depth[b.index()] = depth[a.index()] + 1;
                }
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Per key group: the total number of key groups in its operator's
    /// downstream operators — the denominator of ALBIC's `avg(g_i)` score.
    /// Derivable from the job description alone, so callers that already
    /// have a [`Topology`] never need to hand-maintain this vector.
    pub fn downstream_group_counts(&self) -> Vec<u32> {
        let mut dg = vec![0u32; self.num_key_groups() as usize];
        for op in &self.operators {
            let total: u32 = self
                .downstream(op.id)
                .iter()
                .map(|&d| self.operator(d).key_groups)
                .sum();
            for g in self.groups_of(op.id) {
                dg[g as usize] = total;
            }
        }
        dg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Identity;

    fn chain(n: usize, kgs: u32) -> Topology {
        let mut b = TopologyBuilder::new();
        let mut prev: Option<OperatorId> = None;
        for i in 0..n {
            let id = if i == 0 {
                b.source(format!("op{i}"), kgs, Arc::new(Identity))
            } else {
                b.operator(format!("op{i}"), kgs, Arc::new(Identity))
            };
            if let Some(p) = prev {
                b.edge(p, id);
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn builds_chain_with_global_group_ids() {
        let t = chain(3, 10);
        assert_eq!(t.num_key_groups(), 30);
        assert_eq!(t.groups_of(OperatorId::new(0)), 0..10);
        assert_eq!(t.groups_of(OperatorId::new(1)), 10..20);
        assert_eq!(t.groups_of(OperatorId::new(2)), 20..30);
        assert_eq!(t.sources().count(), 1);
        assert_eq!(t.downstream(OperatorId::new(0)), &[OperatorId::new(1)]);
        assert_eq!(t.upstream(OperatorId::new(1)), &[OperatorId::new(0)]);
    }

    #[test]
    fn key_hashing_lands_in_owner_range() {
        let t = chain(3, 7);
        for op in 0..3u32 {
            for key in 0..100u64 {
                let kg = t.group_for_key(OperatorId::new(op), key);
                assert!(t.groups_of(OperatorId::new(op)).contains(&kg.raw()));
                assert_eq!(t.operator_of_group(kg), OperatorId::new(op));
            }
        }
    }

    #[test]
    fn operator_of_group_handles_range_boundaries() {
        let t = chain(3, 5);
        assert_eq!(t.operator_of_group(KeyGroupId::new(0)), OperatorId::new(0));
        assert_eq!(t.operator_of_group(KeyGroupId::new(4)), OperatorId::new(0));
        assert_eq!(t.operator_of_group(KeyGroupId::new(5)), OperatorId::new(1));
        assert_eq!(t.operator_of_group(KeyGroupId::new(14)), OperatorId::new(2));
    }

    #[test]
    fn rejects_cycles() {
        let mut b = TopologyBuilder::new();
        let a = b.source("a", 1, Arc::new(Identity));
        let c = b.operator("b", 1, Arc::new(Identity));
        b.edge(a, c);
        b.edge(c, a);
        assert_eq!(b.build().unwrap_err(), TopologyError::Cyclic);
    }

    #[test]
    fn rejects_zero_key_groups() {
        let mut b = TopologyBuilder::new();
        b.source("a", 0, Arc::new(Identity));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::NoKeyGroups(0)
        ));
    }

    #[test]
    fn rejects_unknown_edge_endpoints() {
        let mut b = TopologyBuilder::new();
        let a = b.source("a", 1, Arc::new(Identity));
        b.edge(a, OperatorId::new(9));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::UnknownOperator(9)
        ));
    }

    #[test]
    fn depth_and_downstream_counts_follow_the_dag() {
        let t = chain(4, 5);
        assert_eq!(t.depth(), 3);
        let dg = t.downstream_group_counts();
        // Every non-final operator feeds exactly one 5-group operator.
        assert_eq!(&dg[0..15], &[5u32; 15][..]);
        assert_eq!(&dg[15..20], &[0u32; 5][..]);
        assert_eq!(t.operator_by_name("op2"), Some(OperatorId::new(2)));
        assert_eq!(t.operator_by_name("nope"), None);

        let single = chain(1, 3);
        assert_eq!(single.depth(), 0);
        assert_eq!(single.downstream_group_counts(), vec![0, 0, 0]);
    }

    #[test]
    fn diamond_topology_is_valid() {
        let mut b = TopologyBuilder::new();
        let s = b.source("src", 4, Arc::new(Identity));
        let l = b.operator("left", 4, Arc::new(Identity));
        let r = b.operator("right", 4, Arc::new(Identity));
        let j = b.operator("join", 4, Arc::new(Identity));
        b.edge(s, l);
        b.edge(s, r);
        b.edge(l, j);
        b.edge(r, j);
        let t = b.build().unwrap();
        assert_eq!(t.downstream(s).len(), 2);
        assert_eq!(t.upstream(j).len(), 2);
        assert_eq!(t.num_key_groups(), 16);
    }
}
