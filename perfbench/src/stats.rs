//! Percentiles, process memory and the result line.

use std::fmt::Write as _;

/// The `p`-quantile (0..=1) of `samples` by nearest rank; sorts in place.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn quantile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// Median of a float series (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty series.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resident set size of this process in bytes, from `/proc/self/statm`
/// (second field, in 4 KiB pages). Zero where the file is unreadable.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Time the whole VM has lost to its host so far (steal, summed over
/// CPUs), in clock ticks, from the first line of `/proc/stat`. Zero
/// where the file is unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The values measured while the VM lost the least time to its host:
/// each value comes with the steal ticks seen while it was measured,
/// and only values whose steal is at most the 5th percentile of all of
/// them are kept. On a quiet host that is every value without steal; on
/// a busy one at least a twentieth of the values are kept.
///
/// # Panics
///
/// Panics on an empty series.
pub fn quiet(values: &[(u64, f64)]) -> Vec<f64> {
    let mut stolen: Vec<u64> = values.iter().map(|v| v.0).collect();
    let limit = quantile(&mut stolen, 0.05);
    values
        .iter()
        .filter(|v| v.0 <= limit)
        .map(|v| v.1)
        .collect()
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Formats a metric value with all its digits (JSON-safe: no NaN/inf).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut s = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut s, 0.5), 3);
        assert_eq!(quantile(&mut s, 1.0), 5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_drops_values_measured_under_steal() {
        let quiet_host = [(0, 1.0), (0, 2.0), (0, 3.0), (0, 9.0)];
        assert_eq!(quiet(&quiet_host), [1.0, 2.0, 3.0, 9.0]);
        let busy_host = [(0, 1.0), (0, 2.0), (1, 9.0), (2, 9.0), (0, 3.0)];
        assert_eq!(quiet(&busy_host), [1.0, 2.0, 3.0]);
        let always_stolen: Vec<(u64, f64)> =
            (0..40).map(|i| (40 - i, f64::from(i as u8))).collect();
        assert_eq!(quiet(&always_stolen), [37.0, 38.0, 39.0]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
