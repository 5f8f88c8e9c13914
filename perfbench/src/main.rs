//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]`
//!
//! Prints one JSON object with every metric the run measured as its last
//! line (`perfbench/run.py` selects the reported set). With `--trace 1`
//! the workload runs twice: untraced, for the user-facing numbers, then
//! traced, for the per-layer numbers and the tracing overhead.

use perfbench::trace::Tracer;
use perfbench::util::{Metric, Outcome};
use perfbench::{run_workload, Args};

fn value(out: &Outcome, name: &str) -> Option<f64> {
    out.metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let mut out = match run_workload(&args, None) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace && out.errors.is_empty() {
        let tracer = Tracer::default();
        let traced = run_workload(&args, Some(&tracer)).expect("workload ran untraced");
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        // Tracing overhead: the traced run's end-to-end deltas.
        for name in ["round_ms_p75", "latency_p50_ms"] {
            if let (Some(u), Some(t)) = (value(&out, name), value(&traced, name)) {
                out.metric(
                    &format!("trace.{name}_overhead_pct"),
                    (t / u - 1.0) * 100.0,
                    "%",
                );
            }
        }
        // Per-layer metrics come from the traced run; user-facing ones
        // stay those of the untraced run.
        let layered: Vec<Metric> = traced
            .metrics
            .into_iter()
            .filter(|m| m.name.contains('.') && value(&out, &m.name).is_none())
            .collect();
        out.metrics.extend(layered);
        out.errors.extend(traced.errors);
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", out.to_json());
}
