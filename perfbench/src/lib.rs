//! End-to-end and per-layer benchmark of the albic engine.
//!
//! Every workload measures from outside the program, by timing calls into
//! each layer's public functions. See `perfbench/README.md` for the
//! workloads, the metrics and how to run it.

pub mod controller_sim;
pub mod sink;
pub mod threaded;
pub mod trace;
pub mod util;

use std::collections::HashSet;
use std::path::PathBuf;

use trace::{Span, Tracer};
use util::{quantile, Outcome};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for sockets, spill files and the span log;
    /// relative paths keep socket names short.
    pub work_dir: PathBuf,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            work_dir: PathBuf::from(".bench_build/perfbench-work"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = value()?,
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => parsed.trace = value()? == "1",
                "--work-dir" => parsed.work_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if parsed.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(parsed)
    }
}

/// Run one workload, untraced or traced.
pub fn run_workload(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    use threaded::Workload;
    Ok(match args.workload.as_str() {
        "ingest" => threaded::run(args, Workload::Ingest { uds: false }, tracer),
        "ingest_uds" => threaded::run(args, Workload::Ingest { uds: true }, tracer),
        "rebalance" => threaded::run(args, Workload::Rebalance, tracer),
        "controller_sim" => controller_sim::run(args, tracer),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Per-layer metrics every traced round loop yields, from its spans.
/// `sampled` are the rounds whose times are the run's round samples: the
/// healthy-round phases are taken over the same rounds. `repairs` are the
/// rounds that repaired a kill; their `recover` phases are the recovery
/// layer's samples.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer, sampled: &[u64], repairs: &[u64]) {
    let sampled: HashSet<u64> = sampled.iter().copied().collect();
    let repairs: HashSet<u64> = repairs.iter().copied().collect();
    let spans = tracer.spans();
    let of = |name: &str, rounds: Option<&HashSet<u64>>| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && rounds.is_none_or(|r| r.contains(&s.round)))
            .map(Span::ms)
            .collect()
    };
    // The framework's own share of planning: plan minus its allocations.
    let plan_self: Vec<f64> = spans
        .iter()
        .zip(tracer.self_ms())
        .filter(|(s, _)| s.name == "plan" && sampled.contains(&s.round))
        .map(|(_, ms)| ms)
        .collect();
    let rows = [
        ("runtime.settle_ms_p50", of("drain", None), 0.5),
        (
            "stats.end_period_ms_p50",
            of("end_period", Some(&sampled)),
            0.5,
        ),
        ("core.plan_ms_p50", of("plan", Some(&sampled)), 0.5),
        ("core.plan_ms_p90", of("plan", Some(&sampled)), 0.9),
        ("core.plan_self_ms_p50", plan_self, 0.5),
        ("core.allocate_ms_p50", of("allocate", Some(&sampled)), 0.5),
        ("migration.apply_ms_p50", of("apply", Some(&sampled)), 0.5),
        (
            "recovery.recover_ms_p50",
            of("recover", Some(&repairs)),
            0.5,
        ),
        ("recovery.add_worker_ms_p50", of("add_worker", None), 0.5),
    ];
    for (name, samples, q) in rows {
        if let Some(v) = quantile(&samples, q) {
            out.metric(name, v, "ms");
        }
    }
    let gaps = tracer.gaps();
    if !gaps.is_empty() {
        out.metric(
            "milp.gap_pp",
            gaps.iter().sum::<f64>() / gaps.len() as f64,
            "pp",
        );
    }
}
