//! Sample statistics: percentiles that refuse to extrapolate, means, and
//! the process's peak resident memory.

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of outliers, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of p99.9, p99, p90 and p50 that `samples` can support,
/// as `(p, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| percentile(samples, p).map(|v| (p, v)))
}

/// Arithmetic mean (`None` when empty).
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The median of a small set of repeated measurements (no refusal: used
/// for the handful of set-up repetitions, not for latency tails).
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), None, "999 samples leave 9 beyond p99");
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples[..19], 50.0), None, "19 samples leave 9 beyond p50");
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90.0, 180.0)));
        assert_eq!(tail(&samples[..5]), None);
    }
}
