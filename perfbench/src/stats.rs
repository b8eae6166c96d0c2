//! Order statistics for the report.
//!
//! Percentiles are nearest-rank: the p-th percentile of n samples is the
//! sample at 1-based rank ⌈p·n/100⌉ of the sorted list, and the samples
//! "beyond" it are the n − rank larger ones. A named percentile is only
//! reported as supported when at least [`MIN_BEYOND`] samples lie beyond
//! it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Most windows [`windowed_percentile`] splits a run's samples into.
pub const MAX_WINDOWS: usize = 10;

/// Percentiles the report considers, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer per-mille so that e.g. p95 of 200 samples is exactly rank 190.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (in percent); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(xs.len(), p) - 1]
}

/// Splits `xs` (in the order they were taken) into the most consecutive
/// windows, at most [`MAX_WINDOWS`], that each still have [`MIN_BEYOND`]
/// samples beyond percentile `p`, and returns the median over the windows
/// of each window's percentile with the window count. A stall of the host
/// then moves one window's figure instead of the run's. Windows are equal
/// in size; the last one also takes the remainder. With too few samples for
/// two windows it is the plain percentile of all of them.
pub fn windowed_percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let k = (2..=MAX_WINDOWS)
        .rev()
        .find(|&k| supported(xs.len() / k, p))
        .unwrap_or(1);
    let size = xs.len() / k;
    let per: Vec<f64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k { xs.len() } else { (i + 1) * size };
            percentile(&xs[i * size..end], p)
        })
        .collect();
    (median(&per), k)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// True when percentile `p` of `n` samples has [`MIN_BEYOND`] beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75, 50) with at
/// least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supported(n, p))
}

/// Quantile `q` (0..1) estimated from log₂ histogram buckets
/// `(floor, count)` as the `tpot_obs` registry exports them: bucket 0
/// holds 0, bucket `[f, 2f)` holds values from f to 2f − 1. The estimate
/// interpolates linearly inside the bucket holding the rank.
pub fn hist_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0);
    let mut seen = 0u64;
    for &(floor, count) in buckets {
        if (seen + count) as f64 >= target {
            if floor == 0 {
                return 0.0;
            }
            let within = (target - seen as f64) / count as f64;
            return floor as f64 + within * floor as f64;
        }
        seen += count;
    }
    let last = buckets.last().map_or(0, |b| b.0);
    2.0 * last as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
