//! Ingest stall during live migration: the bare epoch wave vs. the same
//! wave behind the stop-the-world fence.
//!
//! Producer threads stream a source→counter pipeline at a **fixed
//! offered load** (paced inject calls, well below saturation) while the
//! harness fires back-to-back migration waves underneath them, and only
//! the keys of *non-migrating* groups are streamed — the paper's claim
//! made measurable: reconfiguring groups A must not stall streams that
//! never touch A. The load is paced deliberately: at saturation the
//! bounded channels are permanently full, so *any* hiccup anywhere
//! backpressures every producer and the measurement reads queueing
//! theory, not the reconfiguration protocol. Below saturation the
//! channels have slack, and a producer only waits when something
//! actually fences it.
//!
//! Both modes run the same epoch-wave executor. `Quiesce` fences every
//! wave: the injection gate blocks producers for the whole
//! drain–migrate–drain window no matter how light the load is. `Epoch`
//! runs the bare wave, which aligns barriers edge-locally and ships the
//! moving state while everything else streams, so a paced producer
//! never waits on it. The headline number is the worst single
//! `inject` stall observed while a wave was in flight, and the gated,
//! machine-independent figure is the **dip ratio**
//! `stall_quiesce / stall_epoch` (both sides measured in the same
//! process on the same machine), checked with `--min-dip-ratio`
//! (default 10, scaled by `EPOCH_DIP_TOLERANCE` for noisy runners).
//! Every run also re-proves exactly-once end to end: after the producers
//! stop and the pipeline settles, the counter total must equal exactly
//! what was produced, in both modes.
//!
//! Results are spliced into `BENCH_runtime.json` under
//! `"epoch_reconfig"` (the rest of the file — the throughput harness's
//! output — is preserved).
//!
//! ```text
//! cargo run --release -p albic-bench --bin fig_epoch -- --smoke
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use albic_core::job::{Job, Policy};
use albic_engine::operator::{Emissions, Identity, Operator, StateBox};
use albic_engine::tuple::{hash_key, Tuple, Value};
use albic_engine::{Migration, ReconfigMode, ReconfigPlan, Runtime, RuntimeConfig};
use albic_types::{KeyGroupId, NodeId};

const KEYS: i64 = 64;
const KEY_GROUPS: u32 = 8;
const NODES: usize = 3;
const PRODUCERS: usize = 3;
/// Tuples per producer inject call.
const WAVE: u64 = 64;
/// Pause between inject calls: the fixed offered load (~WAVE/PACE per
/// producer) that keeps the data plane below saturation, so bounded
/// channels have slack and a stalled inject call means a fence, not
/// ordinary backpressure.
const PACE: Duration = Duration::from_micros(500);

/// A counter whose per-group state drags `ballast` inert bytes behind the
/// count. The ballast gives every migration a real `|σ_k|` to serialize
/// and ship — that shipping time is the pause the two modes spread
/// differently: the fenced wave stops the whole world for it, the bare
/// wave pays it edge-locally while everything else streams.
struct HeavyCounting {
    ballast: usize,
}

struct HeavyState {
    count: u64,
    ballast: Vec<u8>,
}

impl Operator for HeavyCounting {
    fn name(&self) -> &str {
        "heavy-counting"
    }
    fn new_state(&self) -> StateBox {
        Box::new(HeavyState {
            count: 0,
            ballast: vec![0u8; self.ballast],
        })
    }
    fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
        let s = state.downcast_ref::<HeavyState>().expect("heavy state");
        let mut out = Vec::with_capacity(8 + s.ballast.len());
        out.extend_from_slice(&s.count.to_le_bytes());
        out.extend_from_slice(&s.ballast);
        out
    }
    fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
        Box::new(HeavyState {
            count: u64::from_le_bytes(bytes[..8].try_into().expect("count prefix")),
            ballast: bytes[8..].to_vec(),
        })
    }
    fn process(&self, _tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
        state
            .downcast_mut::<HeavyState>()
            .expect("heavy state")
            .count += 1;
    }
}

struct ModeResult {
    quiet_tps: f64,
    migration_tps: f64,
    /// `quiet_tps / migration_tps`, floored at 1 (a migration phase that
    /// happens to measure *faster* than quiet is noise, not a speedup).
    rate_dip: f64,
    /// Worst single `inject` call observed by any producer while a
    /// reconfiguration was in progress — the depth × width of the
    /// throughput valley. The quiesce mode's fence holds producers for
    /// the whole drain–migrate–drain window; under the bare epoch wave a
    /// paced producer streaming non-migrating keys is never fenced, so
    /// its worst stall is scheduler noise.
    max_stall_ms: f64,
    applies: usize,
    migrations: usize,
    produced: u64,
}

/// Rotate the scripted groups to `to`, skipping moves already home.
fn rotate_plan(rt: &Runtime, groups: &[KeyGroupId], to: NodeId) -> ReconfigPlan {
    let routing = rt.routing_snapshot();
    let mut plan = ReconfigPlan::noop();
    for &kg in groups {
        if routing.node_of(kg) != to {
            plan.migrations.push(Migration { group: kg, to });
        }
    }
    plan
}

/// Run one reconfiguration mode: quiet phase, then `applies` back-to-back
/// migration waves, with producers streaming throughout. Panics if the
/// run is not exactly-once.
fn run_mode(mode: ReconfigMode, quiet: Duration, applies: usize, ballast: usize) -> ModeResult {
    let mut job = Job::builder()
        .source("events", KEY_GROUPS, Identity)
        .operator("count", KEY_GROUPS, HeavyCounting { ballast })
        .edge("events", "count")
        .nodes(NODES)
        .checkpoint_interval(1)
        // Headroom over the default: a worker busy deserializing a
        // multi-megabyte install on a loaded machine must not fill its
        // inbox at the paced offered rate — that would turn a local
        // hiccup into a global backpressure stall in *both* modes.
        .runtime_config(RuntimeConfig {
            channel_capacity: 4096,
            ..RuntimeConfig::default()
        })
        .reconfig_mode(mode)
        .policy(Policy::noop())
        .build_threaded()
        .expect("valid fig_epoch job");

    // Partition the key space around the scripted migration: three of the
    // counter's key groups migrate, and the producers stream only the
    // keys of the *other* five. This is the paper's claim made
    // measurable — reconfiguring groups A must not stall streams that
    // never touch A. The fenced wave stalls them anyway (the injection
    // fence is global); the bare wave must not.
    let (migrate_groups, cold_keys) = {
        let topo = job.engine().topology();
        let cnt = topo.operator_by_name("count").unwrap();
        let by_key: Vec<(i64, KeyGroupId)> = (0..KEYS)
            .map(|k| (k, topo.group_for_key(cnt, hash_key(&k))))
            .collect();
        let mut migrating = Vec::new();
        for &(_, g) in &by_key {
            if !migrating.contains(&g) {
                migrating.push(g);
                if migrating.len() == 3 {
                    break;
                }
            }
        }
        let cold: Vec<i64> = by_key
            .iter()
            .filter(|(_, g)| !migrating.contains(g))
            .map(|(k, _)| *k)
            .collect();
        (migrating, cold)
    };

    // Seed every counter group — including the migrating ones — so their
    // ballast states exist before the first wave ships them.
    job.inject(
        "events",
        (0..KEYS).map(|k| Tuple::keyed(&k, Value::Int(k), 0)),
    );
    job.settle();
    let seeded = KEYS as u64;

    let produced = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // `migrating` flips to true for the apply loop; producers record their
    // worst single inject stall observed while it is up (nanoseconds).
    let migrating = Arc::new(AtomicBool::new(false));
    let stall_ns = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let inj = job.injector("events");
            let produced = Arc::clone(&produced);
            let stop = Arc::clone(&stop);
            let migrating = Arc::clone(&migrating);
            let stall_ns = Arc::clone(&stall_ns);
            let cold = cold_keys.clone();
            std::thread::spawn(move || {
                let mut base = t as u64 * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    inj.inject((0..WAVE).map(|i| {
                        let k = cold[(base + i) as usize % cold.len()];
                        Tuple::keyed(&k, Value::Int((base + i) as i64), base)
                    }));
                    if migrating.load(Ordering::Relaxed) {
                        stall_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    base += WAVE;
                    produced.fetch_add(WAVE, Ordering::Relaxed);
                    std::thread::sleep(PACE);
                }
            })
        })
        .collect();

    // Warmup, then the quiet phase: sustained rate with no waves.
    std::thread::sleep(quiet / 2);
    let quiet_start = (Instant::now(), produced.load(Ordering::Relaxed));
    std::thread::sleep(quiet);
    let quiet_elapsed = quiet_start.0.elapsed().as_secs_f64();
    let quiet_tps = (produced.load(Ordering::Relaxed) - quiet_start.1) as f64 / quiet_elapsed;

    // Migration phase: back-to-back waves bouncing the scripted groups
    // between two nodes, so every apply really migrates. The rate is
    // measured *inside* the apply windows — sustained ingest while a
    // reconfiguration is in progress, the paper's dip — not across the
    // plan-building gaps between waves.
    let mut migrations = 0;
    let mut mig_tuples = 0u64;
    let mut mig_secs = 0.0f64;
    migrating.store(true, Ordering::Relaxed);
    for round in 0..applies {
        let to = NodeId::new(if round % 2 == 0 { 1 } else { 2 });
        let plan = rotate_plan(job.engine(), &migrate_groups, to);
        let before = produced.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let report = job.apply(&plan);
        mig_secs += t0.elapsed().as_secs_f64();
        mig_tuples += produced.load(Ordering::Relaxed) - before;
        assert!(
            report.failed.is_empty(),
            "healthy wave: {:?}",
            report.failed
        );
        migrations += report.migrations.len();
    }
    // Let any inject call still stalled from the last wave finish and
    // record itself before the flag drops.
    std::thread::sleep(Duration::from_millis(20));
    migrating.store(false, Ordering::Relaxed);
    let migration_tps = mig_tuples as f64 / mig_secs;
    let max_stall_ms = stall_ns.load(Ordering::Relaxed) as f64 / 1e6;

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    job.settle();

    // Exactly-once backstop: the counter total equals what was produced.
    let total_produced = seeded + produced.load(Ordering::Relaxed);
    let counted: u64 = {
        let rt = job.engine();
        let cnt = rt.topology().operator_by_name("count").unwrap();
        (0..rt.topology().num_key_groups())
            .filter(|&g| rt.topology().operator_of_group(KeyGroupId::new(g)) == cnt)
            .filter_map(|g| rt.probe_state(KeyGroupId::new(g)))
            .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
            .sum()
    };
    assert_eq!(
        counted, total_produced,
        "{mode:?}: migration waves must be exactly-once"
    );
    let stats = job.measure();
    assert_eq!(stats.dropped_tuples, 0.0, "{mode:?}: dropped tuples");
    job.shutdown();

    let rate_dip = if migration_tps > 0.0 {
        (quiet_tps / migration_tps).max(1.0)
    } else {
        // The producers were blocked for the whole phase.
        f64::INFINITY
    };
    eprintln!(
        "  {mode:?}: quiet {quiet_tps:.0} t/s, during migration {migration_tps:.0} t/s \
         (rate dip {rate_dip:.2}x), worst ingest stall {max_stall_ms:.1}ms \
         ({applies} waves, {migrations} migrations)"
    );
    ModeResult {
        quiet_tps,
        migration_tps,
        rate_dip,
        max_stall_ms,
        applies,
        migrations,
        produced: total_produced,
    }
}

fn mode_json(r: &ModeResult) -> String {
    format!(
        "{{\"quiet_tps\": {:.0}, \"migration_tps\": {:.0}, \"rate_dip\": {:.2}, \"max_stall_ms\": {:.2}, \"applies\": {}, \"migrations\": {}, \"produced\": {}}}",
        r.quiet_tps,
        if r.migration_tps.is_finite() { r.migration_tps } else { 0.0 },
        if r.rate_dip.is_finite() { r.rate_dip } else { 1e9 },
        r.max_stall_ms,
        r.applies,
        r.migrations,
        r.produced
    )
}

/// Remove a previously spliced `"epoch_reconfig"` block (comma through
/// matching close brace) so re-runs stay idempotent.
fn strip_block(json: &str) -> String {
    let Some(key) = json.find("\"epoch_reconfig\"") else {
        return json.to_string();
    };
    let start = json[..key].rfind(',').unwrap_or(key);
    let open = match json[key..].find('{') {
        Some(o) => key + o,
        None => return json.to_string(),
    };
    let mut depth = 0usize;
    let mut end = json.len();
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i + 1;
                    break;
                }
            }
            _ => {}
        }
    }
    format!("{}{}", &json[..start], &json[end..])
}

/// Splice the `"epoch_reconfig"` object into `BENCH_runtime.json`,
/// preserving whatever else (the throughput harness output) is there.
fn write_results(block: &str) {
    let path = std::path::Path::new("BENCH_runtime.json");
    let existing = std::fs::read_to_string(path)
        .map(|s| strip_block(&s))
        .unwrap_or_else(|_| "{\n  \"schema\": 1\n}\n".to_string());
    let trimmed = existing.trim_end();
    let json = match trimmed.strip_suffix('}') {
        Some(body) => format!(
            "{},\n  \"epoch_reconfig\": {}\n}}\n",
            body.trim_end(),
            block
        ),
        None => format!("{{\n  \"epoch_reconfig\": {}\n}}\n", block),
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let min_dip_ratio: f64 = args
        .iter()
        .position(|a| a == "--min-dip-ratio")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let tolerance: f64 = std::env::var("EPOCH_DIP_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    let (quiet, applies, ballast) = if smoke {
        (Duration::from_millis(200), 6, 64 << 20)
    } else {
        (Duration::from_millis(500), 12, 96 << 20)
    };

    eprintln!("quiesce mode (stop-the-world fence around every wave):");
    let quiesce = run_mode(ReconfigMode::Quiesce, quiet, applies, ballast);
    eprintln!("epoch mode (bare wave, edge-local barriers):");
    let epoch = run_mode(ReconfigMode::Epoch, quiet, applies, ballast);

    // The headline, machine-independent number: how much deeper the
    // fenced wave's throughput valley is. Both stalls are measured in
    // the same process on the same machine, so the ratio travels across
    // hardware where absolute milliseconds cannot.
    let ratio = if epoch.max_stall_ms > 0.0 {
        quiesce.max_stall_ms / epoch.max_stall_ms
    } else {
        f64::INFINITY
    };
    let rate_ratio = if epoch.rate_dip.is_finite() && epoch.rate_dip > 0.0 {
        quiesce.rate_dip / epoch.rate_dip
    } else {
        0.0
    };
    println!(
        "worst ingest stall during live migration: quiesce {:.1}ms vs epoch {:.1}ms (dip ratio {ratio:.1}x); rate dip {:.2}x vs {:.2}x",
        quiesce.max_stall_ms, epoch.max_stall_ms, quiesce.rate_dip, epoch.rate_dip
    );

    let block = format!(
        "{{\n    \"mode\": \"{}\",\n    \"min_dip_ratio\": {min_dip_ratio:.1},\n    \"dip_ratio\": {:.2},\n    \"rate_dip_ratio\": {:.2},\n    \"quiesce\": {},\n    \"epoch\": {}\n  }}",
        if smoke { "smoke" } else { "full" },
        if ratio.is_finite() { ratio } else { 1e9 },
        rate_ratio,
        mode_json(&quiesce),
        mode_json(&epoch),
    );
    write_results(&block);

    let floor = min_dip_ratio * tolerance;
    println!("gate: dip ratio {ratio:.1}x (floor {floor:.1}x)");
    if ratio < floor {
        eprintln!("FAIL: epoch mode's advantage fell below the floor");
        std::process::exit(1);
    }
}
