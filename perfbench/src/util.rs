//! Small helpers shared by every workload: a seeded generator, order
//! statistics, wall-clock stamps, peak memory and a tiny JSON writer.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

use albic::engine::PeriodRecord;

/// SplitMix64: a tiny, seedable, deterministic generator. The benchmark
/// owns its input generation, so the inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nanoseconds since the Unix epoch. Both the generator and the sink read
/// this clock, which every process on one host shares — the sink may run
/// in a worker daemon.
pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock is after 1970")
        .as_nanos() as u64
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule, or
/// `None` when fewer than ten samples lie beyond it — a percentile the
/// run cannot support is never reported.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (at least one required).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of a process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Pids of the live child processes of this process (the worker daemons
/// of a networked job).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    // The command name may hold spaces; fields resume after ')'.
                    let rest = &s[s.rfind(')')? + 2..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(me)
        })
        .collect()
}

/// Compare two `PeriodRecord` histories: counts exactly, modelled floats
/// to 1e-9 relative. The float slack is needed because
/// `total_system_load` sums per-node loads in `HashMap` iteration order,
/// which differs between engine instances in the last bit.
pub fn records_match(a: &[PeriodRecord], b: &[PeriodRecord]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} periods vs {}", a.len(), b.len()));
    }
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    for (x, y) in a.iter().zip(b) {
        let counts = [
            (x.period as f64, y.period as f64),
            (x.migrations as f64, y.migrations as f64),
            (
                x.migration_state_bytes as f64,
                y.migration_state_bytes as f64,
            ),
            (x.migration_wire_bytes as f64, y.migration_wire_bytes as f64),
            (x.num_nodes as f64, y.num_nodes as f64),
            (x.marked_nodes as f64, y.marked_nodes as f64),
            (x.failed_nodes as f64, y.failed_nodes as f64),
            (x.groups_restored as f64, y.groups_restored as f64),
            (x.checkpoint_bytes as f64, y.checkpoint_bytes as f64),
            (x.delta_bytes as f64, y.delta_bytes as f64),
            (x.spilled_groups as f64, y.spilled_groups as f64),
            (x.dropped_tuples, y.dropped_tuples),
            (x.tuples_replayed, y.tuples_replayed),
        ];
        let floats = [
            (x.load_distance, y.load_distance),
            (x.mean_load, y.mean_load),
            (x.total_system_load, y.total_system_load),
            (x.collocation_factor, y.collocation_factor),
            (x.migration_cost, y.migration_cost),
        ];
        if counts.iter().any(|(p, q)| p != q) || floats.iter().any(|&(p, q)| !close(p, q)) {
            return Err(format!("period {} differs:\n  {x:?}\n  {y:?}", x.period));
        }
    }
    Ok(())
}

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks; a run with any is not correct, and
    /// prints no metrics.
    pub errors: Vec<String>,
    /// Operations attempted: tuples injected plus migrations planned.
    pub attempted: u64,
    /// Operations failed: tuples dropped or truncated plus migrations
    /// that failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Executed migrations `(group, from, to)` in order (threaded runs).
    pub moves: Vec<(u32, u32, u32)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The run as one JSON object (every metric the run measured).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, json_str(e));
        }
        s.push_str("], \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                json_str(&m.name),
                value,
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 0.99), None, "only one sample beyond p99");
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&many, 0.99), Some(990.0));
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
