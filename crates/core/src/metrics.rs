//! Metric series helpers for the evaluation figures.
//!
//! Raw per-period metrics are recorded by the engine
//! ([`PeriodRecord`]); this module derives
//! the series the paper plots.

use albic_engine::sim::PeriodRecord;

/// The *load index*: current total system load as a percentage of the
/// average total load over the first `baseline_periods` periods (the
/// post-initialization reference the paper normalizes by). A value of 50
/// means collocation halved the system load (Fig. 12).
pub fn load_index_series(history: &[PeriodRecord], baseline_periods: usize) -> Vec<f64> {
    let n = baseline_periods.clamp(1, history.len().max(1));
    let base: f64 = history
        .iter()
        .take(n)
        .map(|r| r.total_system_load)
        .sum::<f64>()
        / n as f64;
    if base <= 0.0 {
        return vec![100.0; history.len()];
    }
    history
        .iter()
        .map(|r| 100.0 * r.total_system_load / base)
        .collect()
}

/// Load-distance series (percentage points).
pub fn load_distance_series(history: &[PeriodRecord]) -> Vec<f64> {
    history.iter().map(|r| r.load_distance).collect()
}

/// Collocation-factor series (percent of traffic kept node-local).
pub fn collocation_series(history: &[PeriodRecord]) -> Vec<f64> {
    history.iter().map(|r| r.collocation_factor).collect()
}

/// Migrations-per-period series.
pub fn migration_series(history: &[PeriodRecord]) -> Vec<usize> {
    history.iter().map(|r| r.migrations).collect()
}

/// Cumulative migration pause time in minutes (Fig. 9's y-axis).
pub fn cumulative_pause_minutes(history: &[PeriodRecord]) -> Vec<f64> {
    let mut acc = 0.0;
    history
        .iter()
        .map(|r| {
            acc += r.migration_pause_secs;
            acc / 60.0
        })
        .collect()
}

/// Arithmetic mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice (0 for empty input).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(period: u64, load: f64, dist: f64, migs: usize, pause: f64) -> PeriodRecord {
        PeriodRecord {
            period,
            load_distance: dist,
            mean_load: 0.0,
            total_system_load: load,
            collocation_factor: 0.0,
            migrations: migs,
            migration_cost: 0.0,
            migration_pause_secs: pause,
            migration_state_bytes: 0,
            migration_wire_bytes: 0,
            num_nodes: 2,
            marked_nodes: 0,
            dropped_tuples: 0.0,
            failed_nodes: 0,
            groups_restored: 0,
            tuples_replayed: 0.0,
            recovery_secs: 0.0,
            checkpoint_bytes: 0,
            delta_bytes: 0,
            spilled_groups: 0,
            spill_failures: 0,
        }
    }

    #[test]
    fn load_index_normalizes_to_first_periods() {
        let history = vec![
            rec(0, 200.0, 0.0, 0, 0.0),
            rec(1, 200.0, 0.0, 0, 0.0),
            rec(2, 100.0, 0.0, 0, 0.0),
        ];
        let idx = load_index_series(&history, 2);
        assert_eq!(idx, vec![100.0, 100.0, 50.0]);
    }

    #[test]
    fn load_index_handles_zero_baseline() {
        let history = vec![rec(0, 0.0, 0.0, 0, 0.0)];
        assert_eq!(load_index_series(&history, 1), vec![100.0]);
    }

    #[test]
    fn cumulative_pause_accumulates_in_minutes() {
        let history = vec![rec(0, 1.0, 0.0, 1, 60.0), rec(1, 1.0, 0.0, 1, 120.0)];
        assert_eq!(cumulative_pause_minutes(&history), vec![1.0, 3.0]);
    }

    #[test]
    fn series_extraction() {
        let history = vec![rec(0, 1.0, 5.0, 3, 0.0), rec(1, 1.0, 7.0, 4, 0.0)];
        assert_eq!(load_distance_series(&history), vec![5.0, 7.0]);
        assert_eq!(migration_series(&history), vec![3, 4]);
    }

    #[test]
    fn mean_and_max_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
    }
}
