//! Sustained-throughput harness for the threaded runtime's data plane.
//!
//! Drives a live source→counter pipeline at increasing offered load and
//! measures, per load level, the achieved tuples/sec and the
//! p50/p99 *settle latency* (time for an injected wave to fully traverse
//! the topology and drain every queue). Injection feels the engine's
//! backpressure, so the achieved rate is the *sustained* rate — offered
//! load past the engine's capacity blocks the producer instead of
//! growing a queue.
//!
//! Two configurations run back to back:
//!
//! * `columnar` — the chunk data plane at its natural 256-row chunk
//!   size: one virtual call per key-group run over flat column arrays.
//!   The headline number.
//! * `per_tuple` — the same plane at `batch_size = 1`: every tuple is
//!   its own one-row chunk hand-off, what each hop costs without
//!   batching. The baseline of the speedup gate.
//! * `trickle` — the default `batch_size`, injected [`TRICKLE_CALL`]
//!   tuples per call, the way a paced source feeds the engine: every
//!   hand-off starts as a short chunk, and what the plane does with a
//!   queue of them (workers and stub writers coalesce what is already
//!   queued) is what this line measures. Recorded, not gated.
//!
//! A `groups` block prices a key-group run: the default-`batch_size`
//! plane at [`KEY_GROUPS`] and at [`MANY_GROUPS`] key groups per operator
//! (more, shorter runs per chunk for the same tuples), each the best of
//! [`GROUP_PAIRS`] alternating runs on one larger level, and their
//! ratio. `--min-groups-ratio <x>` gates that ratio: both readings come
//! from one process, so like the speedup it travels across hardware.
//!
//! A `control` block records what an adaptation round costs the control
//! plane: the median wall time of an idle `Job::step` (no-op policy,
//! settled data plane) on the same 3-node job, and the control fan-outs
//! that step issues — a machine-independent count. Recorded, not gated.
//!
//! Every level runs a discarded warm-up pass and then three measured
//! repetitions; the reported figures are the median repetition by
//! throughput, so one scheduler hiccup cannot contaminate a committed
//! percentile (the old single-shot harness committed a 5ms p99 outlier).
//!
//! The run compares its fresh sustained throughput against the committed
//! baseline — `gate_tps` of `BENCH_runtime.json` at git `HEAD`, or of the
//! file named by `--baseline <path>` — and **exits non-zero on a
//! regression** (disable with `--no-gate`). `--min-speedup <x>` gates
//! the machine-independent ratio of the first two configurations.
//!
//! With `--write`, and only when every gate passed, the results replace
//! `BENCH_runtime.json` in the working directory — stamped with the
//! machine fingerprint and git revision that produced them, so a gate
//! failure on foreign hardware is self-diagnosing. Without it nothing is
//! written, so a local run never moves the baseline it gates against.
//!
//! ```text
//! cargo run --release -p albic-bench --bin throughput -- --smoke
//! ```

use std::time::{Duration, Instant};

use albic_core::job::{Job, Policy};
use albic_engine::operator::{Counting, Identity};
use albic_engine::runtime::Runtime;
use albic_engine::tuple::{Tuple, Value};
use albic_engine::RuntimeConfig;

/// Distinct keys the generator cycles through (spreads load over all key
/// groups of both operators).
const KEYS: i64 = 64;
/// Key groups per operator; 3 nodes guarantee the source→counter hop
/// crosses workers for every key (groups `h%8` and `8+h%8` never share a
/// node under round-robin over 3).
const KEY_GROUPS: u32 = 8;
/// Key groups per operator for the `groups` block's second reading: the
/// same 64 keys spread over 8× the groups, so each chunk splits into
/// many short runs. Still crosses workers for every key (`64+g` and `g`
/// never share a node under round-robin over 3).
const MANY_GROUPS: u32 = 64;
const NODES: usize = 3;
/// Measured repetitions per load level (after one discarded warm-up).
const REPS: usize = 3;
/// Alternating few/many-groups run pairs of the `groups` block.
const GROUP_PAIRS: usize = 11;
/// Tuples per `inject` call in the `trickle` configuration.
const TRICKLE_CALL: usize = 4;
/// Idle adaptation rounds timed for the `control` block.
const IDLE_STEPS: usize = 400;

struct LevelResult {
    offered_tuples: usize,
    tuples_per_sec: f64,
    p50_settle_ms: f64,
    p99_settle_ms: f64,
}

struct ConfigResult {
    batch_size: usize,
    call_tuples: usize,
    sustained_tps: f64,
    p50_settle_ms: f64,
    p99_settle_ms: f64,
    levels: Vec<LevelResult>,
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// The measured `events → count` job on [`NODES`] workers, warmed up:
/// every state populated, every channel faulted in, the plane settled.
fn warm_job(cfg: RuntimeConfig, groups: u32, wave: usize) -> Job<Runtime> {
    let mut job = Job::builder()
        .source("events", groups, Identity)
        .operator("count", groups, Counting)
        .edge("events", "count")
        .nodes(NODES)
        .policy(Policy::noop())
        .runtime_config(cfg)
        .build_threaded()
        .expect("valid throughput job");
    job.inject("events", make_wave(0, wave));
    job.settle();
    job
}

/// One repetition of one load level on a fresh job.
fn run_level(cfg: RuntimeConfig, groups: u32, offered: usize, wave: usize) -> LevelResult {
    let mut job = warm_job(cfg, groups, wave);

    // Throughput phase: stream the whole level through the pipeline
    // and settle once at the end, so the quiesce barrier is amortized
    // over the level instead of being measured per wave. Waves are
    // pre-materialized — the harness measures the engine's data
    // plane, not the tuple generator.
    let waves = offered.div_ceil(wave);
    let mut prepared: Vec<Vec<Tuple>> = (0..waves)
        .map(|w| make_wave((w + 1) * wave, wave).collect())
        .collect();
    let started = Instant::now();
    for batch in prepared.drain(..) {
        job.inject("events", batch);
    }
    job.settle();
    let elapsed = started.elapsed().as_secs_f64();

    // Latency phase: settle latency of individual probe waves — the
    // time for a wave to fully traverse the topology and drain.
    let probes = 24;
    let mut latencies = Vec::with_capacity(probes);
    for p in 0..probes {
        let batch: Vec<Tuple> = make_wave((waves + p + 1) * wave, wave).collect();
        job.inject("events", batch);
        let injected = Instant::now();
        job.settle();
        latencies.push(injected.elapsed());
    }
    job.shutdown();

    latencies.sort();
    let tuples = waves * wave;
    LevelResult {
        offered_tuples: tuples,
        tuples_per_sec: tuples as f64 / elapsed,
        p50_settle_ms: percentile_ms(&latencies, 0.50),
        p99_settle_ms: percentile_ms(&latencies, 0.99),
    }
}

/// Run one batch-size configuration over every load level: a discarded
/// warm-up pass, then the median of [`REPS`] measured repetitions per
/// level (median by throughput — its latencies come with it, so the
/// reported percentiles belong to a coherent run).
fn run_config(cfg: RuntimeConfig, levels: &[usize], wave: usize) -> ConfigResult {
    let mut out = Vec::new();
    let mut best_tps = 0.0f64;
    let (mut best_p50, mut best_p99) = (0.0, 0.0);
    for &offered in levels {
        // Warm-up pass: first-touch page faults, thread spawn, branch
        // training — all discarded.
        let _ = run_level(cfg, KEY_GROUPS, offered, wave);
        let mut reps: Vec<LevelResult> = (0..REPS)
            .map(|_| run_level(cfg, KEY_GROUPS, offered, wave))
            .collect();
        reps.sort_by(|a, b| a.tuples_per_sec.total_cmp(&b.tuples_per_sec));
        let median = reps.swap_remove(REPS / 2);
        eprintln!(
            "  batch={:<3} offered={:>7} tuples  {:>10.0} t/s  settle p50={:.3}ms p99={:.3}ms",
            cfg.batch_size,
            median.offered_tuples,
            median.tuples_per_sec,
            median.p50_settle_ms,
            median.p99_settle_ms
        );
        if median.tuples_per_sec > best_tps {
            best_tps = median.tuples_per_sec;
            best_p50 = median.p50_settle_ms;
            best_p99 = median.p99_settle_ms;
        }
        out.push(median);
    }
    ConfigResult {
        batch_size: cfg.batch_size,
        call_tuples: wave,
        sustained_tps: best_tps,
        p50_settle_ms: best_p50,
        p99_settle_ms: best_p99,
        levels: out,
    }
}

/// The `groups` block: after a discarded warm-up of each, [`GROUP_PAIRS`]
/// alternating runs of one level at [`KEY_GROUPS`] and [`MANY_GROUPS`]
/// key groups per operator, so drift on a shared machine hits both
/// sides alike. Returns the best t/s of each side — like `sustained_tps`,
/// the reading least slowed by other load — and their ratio (many over
/// few).
fn run_groups(offered: usize, wave: usize) -> (f64, f64, f64) {
    let cfg = RuntimeConfig::default();
    let tps = |groups| run_level(cfg, groups, offered, wave).tuples_per_sec;
    let _ = (tps(KEY_GROUPS), tps(MANY_GROUPS));
    let (mut few, mut many) = (0.0f64, 0.0f64);
    for _ in 0..GROUP_PAIRS {
        let (f, m) = (tps(KEY_GROUPS), tps(MANY_GROUPS));
        eprintln!("  groups={KEY_GROUPS} {f:>10.0} t/s  groups={MANY_GROUPS} {m:>10.0} t/s");
        few = few.max(f);
        many = many.max(m);
    }
    let ratio = if few > 0.0 { many / few } else { 0.0 };
    (few, many, ratio)
}

/// The `control` block: `(median wall ms, control fan-outs)` of an idle
/// `Job::step` — no-op policy, nothing injected since the previous round.
fn run_control(wave: usize) -> (f64, u64) {
    let mut job = warm_job(RuntimeConfig::default(), KEY_GROUPS, wave);
    let _ = job.step();
    let mut times = Vec::with_capacity(IDLE_STEPS);
    let mut fanouts = 0;
    for _ in 0..IDLE_STEPS {
        let before = job.engine().control_fanouts();
        let started = Instant::now();
        let _ = job.step();
        times.push(started.elapsed());
        fanouts = job.engine().control_fanouts() - before;
    }
    job.shutdown();
    times.sort();
    (percentile_ms(&times, 0.5), fanouts)
}

fn make_wave(base: usize, n: usize) -> impl Iterator<Item = Tuple> {
    (0..n).map(move |i| {
        let k = (base + i) as i64 % KEYS;
        Tuple::keyed(&k, Value::Int((base + i) as i64), base as u64)
    })
}

fn config_json(name: &str, r: &ConfigResult) -> String {
    let levels: Vec<String> = r
        .levels
        .iter()
        .map(|l| {
            format!(
                "      {{\"offered_tuples\": {}, \"tuples_per_sec\": {:.0}, \"p50_settle_ms\": {:.3}, \"p99_settle_ms\": {:.3}}}",
                l.offered_tuples, l.tuples_per_sec, l.p50_settle_ms, l.p99_settle_ms
            )
        })
        .collect();
    format!(
        "  \"{}\": {{\n    \"batch_size\": {},\n    \"call_tuples\": {},\n    \"sustained_tps\": {:.0},\n    \"p50_settle_ms\": {:.3},\n    \"p99_settle_ms\": {:.3},\n    \"levels\": [\n{}\n    ]\n  }}",
        name,
        r.batch_size,
        r.call_tuples,
        r.sustained_tps,
        r.p50_settle_ms,
        r.p99_settle_ms,
        levels.join(",\n")
    )
}

/// Pull `"gate_tps": <number>` out of a previous `BENCH_runtime.json`
/// without a JSON dependency (the vendored serde stub does not parse).
fn parse_gate_tps(json: &str) -> Option<f64> {
    let idx = json.find("\"gate_tps\":")?;
    let rest = &json[idx + "\"gate_tps\":".len()..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// First `model name` line of `/proc/cpuinfo` (Linux), or a placeholder.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `uname -sr`-style kernel identification, via the `ostype`/`osrelease`
/// proc files (no libc dependency).
fn os_release() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let ostype = read("/proc/sys/kernel/ostype");
    let osrelease = read("/proc/sys/kernel/osrelease");
    if ostype.is_empty() && osrelease.is_empty() {
        std::env::consts::OS.to_string()
    } else {
        format!("{ostype} {osrelease}").trim().to_string()
    }
}

/// Short git revision of the working tree that produced these numbers,
/// or `"unknown"` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escape a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The committed baseline's `gate_tps`: from `path` when given, else
/// from `BENCH_runtime.json` as committed at git `HEAD` — never from the
/// working-directory copy a previous local run may have rewritten.
fn committed_gate_tps(path: Option<&str>) -> Option<f64> {
    let json = match path {
        Some(p) => std::fs::read_to_string(p).ok()?,
        None => std::process::Command::new("git")
            .args(["show", "HEAD:BENCH_runtime.json"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())?,
    };
    parse_gate_tps(&json)
}

/// The value following `flag` on the command line, parsed.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = !args.iter().any(|a| a == "--no-gate");
    let write = args.iter().any(|a| a == "--write");
    // Machine-independent floors: both sides of each ratio are measured
    // in the same process on the same machine, so they travel across
    // hardware where the absolute gate cannot.
    let min_speedup: Option<f64> = flag_value(&args, "--min-speedup");
    let min_groups_ratio: Option<f64> = flag_value(&args, "--min-groups-ratio");
    let baseline: Option<String> = flag_value(&args, "--baseline");

    let (levels, wave): (Vec<usize>, usize) = if smoke {
        (vec![5_000, 10_000, 20_000], 1_000)
    } else {
        (vec![20_000, 40_000, 80_000, 160_000], 2_000)
    };
    let groups_level = if smoke { 200_000 } else { 400_000 };

    let previous = committed_gate_tps(baseline.as_deref());

    eprintln!("per-tuple baseline (batch_size = 1):");
    let per_tuple = run_config(
        RuntimeConfig {
            batch_size: 1,
            ..RuntimeConfig::default()
        },
        &levels,
        wave,
    );
    eprintln!("chunked (batch_size = 256):");
    let columnar = run_config(
        RuntimeConfig {
            batch_size: 256,
            ..RuntimeConfig::default()
        },
        &levels,
        wave,
    );

    eprintln!("trickle (default batch_size, {TRICKLE_CALL} tuples per inject call):");
    let trickle = run_config(RuntimeConfig::default(), &levels, TRICKLE_CALL);

    eprintln!("groups (default batch_size, {groups_level} tuples, {GROUP_PAIRS} pairs):");
    let (few_tps, many_tps, groups_ratio) = run_groups(groups_level, wave);

    let (idle_step_ms, idle_step_fanouts) = run_control(wave);

    let speedup = if per_tuple.sustained_tps > 0.0 {
        columnar.sustained_tps / per_tuple.sustained_tps
    } else {
        0.0
    };
    println!(
        "sustained: columnar {:.0} t/s vs per-tuple {:.0} t/s ({speedup:.2}x); trickle {:.0} t/s",
        columnar.sustained_tps, per_tuple.sustained_tps, trickle.sustained_tps
    );
    println!(
        "groups: {few_tps:.0} t/s at {KEY_GROUPS} vs {many_tps:.0} t/s at {MANY_GROUPS} key groups per operator ({groups_ratio:.3}x)"
    );
    println!(
        "control: idle Job::step p50 {idle_step_ms:.3} ms, {idle_step_fanouts} control fan-outs"
    );

    let mut failed = false;
    if let Some(min) = min_speedup {
        println!("gate: columnar-vs-per-tuple speedup {speedup:.2}x (floor {min:.2}x)");
        if speedup < min {
            eprintln!("FAIL: columnar speedup fell below the floor");
            failed = true;
        }
    }
    if let Some(min) = min_groups_ratio {
        println!(
            "gate: {MANY_GROUPS}-vs-{KEY_GROUPS}-groups throughput ratio {groups_ratio:.3}x (floor {min:.3}x)"
        );
        if groups_ratio < min {
            eprintln!("FAIL: the key-group ratio fell below the floor");
            failed = true;
        }
    }
    if gate {
        if let Some(committed) = previous {
            // Absolute throughput is machine-dependent: the committed
            // baseline must come from the gating machine (the "machine"
            // stamp in the JSON says which; regenerate with --no-gate
            // --write when that changes), and the tolerance can be
            // loosened for noisy shared runners.
            let tolerance: f64 = std::env::var("THROUGHPUT_GATE_TOLERANCE")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.8);
            let floor = committed * tolerance;
            println!(
                "gate: measured {:.0} t/s vs committed {:.0} t/s (floor {:.0} = {:.0}% of committed)",
                columnar.sustained_tps,
                committed,
                floor,
                tolerance * 100.0
            );
            if columnar.sustained_tps < floor {
                eprintln!(
                    "FAIL: sustained throughput fell below {:.0}% of the committed baseline",
                    tolerance * 100.0
                );
                failed = true;
            }
        } else {
            println!("gate: no committed baseline found, skipping comparison");
        }
    }
    if failed {
        std::process::exit(1);
    }
    if !write {
        return;
    }

    let json = format!(
        "{{\n  \"schema\": 6,\n  \"mode\": \"{}\",\n  \"machine\": {{\"cpu\": \"{}\", \"cores\": {}, \"os\": \"{}\"}},\n  \"git_rev\": \"{}\",\n  \"workload\": {{\"nodes\": {NODES}, \"key_groups_per_op\": {KEY_GROUPS}, \"keys\": {KEYS}, \"wave_tuples\": {wave}}},\n  \"gate_tps\": {:.0},\n  \"speedup_vs_per_tuple\": {:.2},\n{},\n{},\n{},\n  \"groups\": {{\"batch_size\": {}, \"offered_tuples\": {groups_level}, \"pairs\": {GROUP_PAIRS}, \"few_groups_per_op\": {KEY_GROUPS}, \"few_tps\": {few_tps:.0}, \"many_groups_per_op\": {MANY_GROUPS}, \"many_tps\": {many_tps:.0}, \"ratio\": {groups_ratio:.3}}},\n  \"control\": {{\"idle_step_ms_p50\": {idle_step_ms:.4}, \"idle_step_fanouts\": {idle_step_fanouts}}}\n}}\n",
        if smoke { "smoke" } else { "full" },
        json_escape(&cpu_model()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_escape(&os_release()),
        json_escape(&git_rev()),
        columnar.sustained_tps,
        speedup,
        config_json("columnar", &columnar),
        config_json("per_tuple", &per_tuple),
        config_json("trickle", &trickle),
        RuntimeConfig::default().batch_size,
    );
    let out_path = std::path::Path::new("BENCH_runtime.json");
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("warning: could not write {}: {e}", out_path.display());
    } else {
        eprintln!("wrote {}", out_path.display());
    }
}
