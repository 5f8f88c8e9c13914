//! The traced run drives a phase-by-phase copy of `Controller::step`.
//! These tests pin that copy to the real loop, so the per-layer numbers
//! keep describing the code the end-to-end numbers measure.

use perfbench::trace::Tracer;
use perfbench::util::{records_match, Outcome};
use perfbench::{controller_sim, run_workload, Args};

fn args(workload: &str, seed: u64) -> Args {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}"));
    Args::parse(
        [
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--work-dir",
            dir.to_str().expect("utf-8 path"),
        ]
        .map(String::from),
    )
    .expect("valid arguments")
}

#[test]
fn traced_controller_sim_matches_job_run() {
    let seed = controller_sim::scenario_seed(7, 0);
    let tracer = Tracer::default();
    let traced = controller_sim::history(seed, 40, Some(&tracer));
    let untraced = controller_sim::history(seed, 40, None);
    records_match(&traced, &untraced).expect("identical PeriodRecord histories");
    assert!(
        traced.iter().any(|r| r.migrations > 0),
        "the scenario must migrate"
    );
    assert!(
        tracer.durations("allocate").len() >= 40,
        "every round allocates through the timed wrapper"
    );
}

#[test]
fn traced_rebalance_migrates_like_job_step() {
    let args = args("rebalance", 11);
    let untraced = run_workload(&args, None).expect("known workload");
    let tracer = Tracer::default();
    let traced = run_workload(&args, Some(&tracer)).expect("known workload");
    assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
    assert!(traced.errors.is_empty(), "{:?}", traced.errors);
    assert!(
        untraced.moves.len() > 50,
        "rebalance must migrate every round"
    );
    assert_eq!(
        untraced.moves, traced.moves,
        "identical migration sequences"
    );
    let added = |o: &Outcome| {
        o.metrics
            .iter()
            .find(|m| m.name == "scaling.nodes_added")
            .map(|m| m.value)
    };
    assert!(
        added(&untraced) > Some(0.0),
        "threshold scaling must act on rebalance"
    );
    assert_eq!(
        added(&untraced),
        added(&traced),
        "identical scaling actions"
    );
    let kills = tracer.durations("kill").len();
    assert!(kills >= 10, "{kills} kills");
    assert_eq!(tracer.durations("add_worker").len(), kills);
}
