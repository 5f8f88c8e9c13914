//! Builder validation: one test per `JobError` variant. The builder must
//! reject malformed job specs with a typed error at `build_*` time —
//! never a panic, never a silently misconfigured engine.

use albic::engine::checkpoint::CheckpointMode;
use albic::engine::operator::{Counting, Identity};
use albic::engine::sim::{WorkloadModel, WorkloadSnapshot};
use albic::engine::topology::TopologyError;
use albic::engine::RoutingTable;
use albic::job::{Job, JobError, Policy};
use albic::types::{NodeId, Period};
use albic::workloads::jobs::job2_topology;

struct Flat {
    groups: u32,
}
impl WorkloadModel for Flat {
    fn num_groups(&self) -> u32 {
        self.groups
    }
    fn snapshot(&mut self, _p: Period) -> WorkloadSnapshot {
        WorkloadSnapshot {
            group_tuples: vec![100.0; self.groups as usize],
            group_cost: vec![1.0; self.groups as usize],
            comm: vec![],
            state_bytes: vec![64.0; self.groups as usize],
        }
    }
}

#[test]
fn empty_topology_is_rejected_for_threaded_jobs() {
    let err = Job::builder().nodes(2).build_threaded().unwrap_err();
    assert_eq!(err, JobError::EmptyTopology);
    // ...but a simulated job takes its key-group space from the workload.
    assert!(Job::builder()
        .nodes(2)
        .build_simulated(Flat { groups: 4 })
        .is_ok());
}

#[test]
fn duplicate_operator_names_are_rejected() {
    let err = Job::builder()
        .source("a", 4, Identity)
        .operator("a", 4, Counting)
        .nodes(2)
        .build_threaded()
        .unwrap_err();
    assert_eq!(err, JobError::DuplicateOperator("a".into()));
}

#[test]
fn dangling_edges_are_rejected() {
    let err = Job::builder()
        .source("a", 4, Identity)
        .edge("a", "missing")
        .nodes(2)
        .build_threaded()
        .unwrap_err();
    assert_eq!(
        err,
        JobError::DanglingEdge {
            from: "a".into(),
            to: "missing".into(),
            unknown: "missing".into(),
        }
    );
}

#[test]
fn cyclic_topologies_are_rejected() {
    let err = Job::builder()
        .source("a", 4, Identity)
        .operator("b", 4, Counting)
        .edge("a", "b")
        .edge("b", "a")
        .nodes(2)
        .build_threaded()
        .unwrap_err();
    assert_eq!(err, JobError::InvalidTopology(TopologyError::Cyclic));
    // Zero key groups surface through the same variant.
    let err = Job::builder()
        .source("a", 0, Identity)
        .nodes(2)
        .build_threaded()
        .unwrap_err();
    assert_eq!(
        err,
        JobError::InvalidTopology(TopologyError::NoKeyGroups(0))
    );
}

#[test]
fn mixing_prebuilt_topology_with_fluent_operators_is_rejected() {
    let (topology, _) = job2_topology(4);
    let err = Job::builder()
        .topology(topology)
        .operator("extra", 4, Counting)
        .nodes(2)
        .build_threaded()
        .unwrap_err();
    assert_eq!(err, JobError::MixedTopology);
}

#[test]
fn zero_nodes_is_rejected() {
    // Explicit .nodes(0) and a never-specified cluster both fail.
    let err = Job::builder()
        .source("a", 4, Identity)
        .nodes(0)
        .build_threaded()
        .unwrap_err();
    assert_eq!(err, JobError::ZeroNodes);
    let err = Job::builder()
        .source("a", 4, Identity)
        .build_threaded()
        .unwrap_err();
    assert_eq!(err, JobError::ZeroNodes);
}

#[test]
fn routing_must_cover_every_key_group() {
    // 8 key groups, but only 3 routed.
    let err = Job::builder()
        .source("a", 8, Identity)
        .nodes(2)
        .routing_table(RoutingTable::all_on(3, NodeId::new(0)))
        .build_threaded()
        .unwrap_err();
    assert_eq!(
        err,
        JobError::RoutingMismatch {
            key_groups: 8,
            routed: 3
        }
    );
    // Same check for index-based assignments.
    let err = Job::builder()
        .nodes(2)
        .routing_assignment(vec![0, 1])
        .build_simulated(Flat { groups: 4 })
        .unwrap_err();
    assert_eq!(
        err,
        JobError::RoutingMismatch {
            key_groups: 4,
            routed: 2
        }
    );
}

#[test]
fn routing_to_nodes_outside_the_cluster_is_rejected() {
    let err = Job::builder()
        .source("a", 4, Identity)
        .nodes(2)
        .routing_table(RoutingTable::all_on(4, NodeId::new(9)))
        .build_threaded()
        .unwrap_err();
    assert_eq!(err, JobError::RoutingUnknownNode(NodeId::new(9)));
}

#[test]
fn routing_assignment_indices_must_be_in_range() {
    // Assignments are node *indices*, so the error reports the index and
    // the cluster size — not a (potentially misleading) node id.
    let err = Job::builder()
        .nodes(2)
        .routing_assignment(vec![0, 1, 0, 7])
        .build_simulated(Flat { groups: 4 })
        .unwrap_err();
    assert_eq!(err, JobError::RoutingIndexOutOfRange { index: 7, nodes: 2 });
}

#[test]
fn workload_must_match_the_declared_topology() {
    let err = Job::builder()
        .source("a", 8, Identity)
        .nodes(2)
        .build_simulated(Flat { groups: 4 })
        .unwrap_err();
    assert_eq!(
        err,
        JobError::WorkloadMismatch {
            key_groups: 8,
            workload_groups: 4
        }
    );
}

#[test]
fn albic_without_topology_needs_explicit_downstream_counts() {
    let err = Job::builder()
        .nodes(2)
        .policy(Policy::albic())
        .build_simulated(Flat { groups: 4 })
        .unwrap_err();
    assert_eq!(err, JobError::MissingDownstreamGroups);
    // With explicit counts the same spec builds.
    assert!(Job::builder()
        .nodes(2)
        .policy(Policy::albic().with_downstream(vec![0; 4]))
        .build_simulated(Flat { groups: 4 })
        .is_ok());
}

#[test]
fn downstream_counts_must_cover_every_key_group() {
    let err = Job::builder()
        .nodes(2)
        .policy(Policy::albic().with_downstream(vec![0; 3]))
        .build_simulated(Flat { groups: 8 })
        .unwrap_err();
    assert_eq!(
        err,
        JobError::DownstreamMismatch {
            key_groups: 8,
            downstream: 3
        }
    );
}

#[test]
fn inapplicable_policy_modifiers_are_rejected_not_ignored() {
    use albic::milp::MigrationBudget;
    // Flux's migration cap is its constructor argument; a with_budget on
    // top would be dead configuration.
    let err = Job::builder()
        .nodes(2)
        .policy(Policy::flux(20).with_budget(MigrationBudget::Count(5)))
        .build_simulated(Flat { groups: 4 })
        .unwrap_err();
    assert_eq!(
        err,
        JobError::UnsupportedPolicyOption {
            option: "with_budget",
            policy: "flux",
        }
    );
    // Noop and custom policies are used verbatim; scaling would be lost.
    let err = Job::builder()
        .nodes(2)
        .policy(Policy::noop().with_scaling(35.0, 80.0, 60.0))
        .build_simulated(Flat { groups: 4 })
        .unwrap_err();
    assert_eq!(
        err,
        JobError::UnsupportedPolicyOption {
            option: "with_scaling",
            policy: "noop",
        }
    );
}

#[test]
fn an_uncreatable_spill_directory_is_rejected_naming_the_path() {
    // A spill directory under a regular file can never be created.
    let file = std::env::temp_dir().join(format!("albic-spill-parent-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let dir = file.join("spill");
    let result = Job::builder()
        .source("events", 4, Identity)
        .operator("count", 4, Counting)
        .edge("events", "count")
        .nodes(2)
        .checkpoint_interval(1)
        .checkpoint_mode(CheckpointMode::Incremental)
        .spill_dir(&dir)
        .build_threaded();
    std::fs::remove_file(&file).unwrap();
    let err = result.unwrap_err();
    match &err {
        JobError::SpillDirUnavailable { dir: got, reason } => {
            assert_eq!(got, &dir);
            assert!(!reason.is_empty());
        }
        other => panic!("expected SpillDirUnavailable, got {other:?}"),
    }
    assert!(
        err.to_string().contains(&dir.display().to_string()),
        "{err}"
    );
}

#[test]
fn job_errors_display_actionable_messages() {
    let msg = JobError::ZeroNodes.to_string();
    assert!(msg.contains(".nodes(n)"), "{msg}");
    let msg = JobError::DanglingEdge {
        from: "a".into(),
        to: "b".into(),
        unknown: "b".into(),
    }
    .to_string();
    assert!(msg.contains("unknown operator"), "{msg}");
    let err: Box<dyn std::error::Error> = Box::new(JobError::EmptyTopology);
    assert!(!err.to_string().is_empty());
}
