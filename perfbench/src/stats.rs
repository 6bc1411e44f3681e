//! Order statistics over samples.

/// The nearest rank (1-based) of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule;
/// `+inf` samples (failed requests) sort last. 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The median of `samples` (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// True when at least ten of `n` samples lie beyond the `q`-quantile: the
/// rule for reporting a tail percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}
