//! Order statistics on hand-computed inputs.

use perfbench::stats::{
    beyond, highest_supported, hist_quantile, median, percentile, supported, windowed_percentile,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn nearest_rank_percentiles() {
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    // Rank ⌈0.95·200⌉ = 190, ⌈0.5·200⌉ = 100, ⌈0.9·200⌉ = 180.
    assert_eq!(percentile(&xs, 95.0), 190.0);
    assert_eq!(percentile(&xs, 50.0), 100.0);
    assert_eq!(percentile(&xs, 90.0), 180.0);
    // Rank ⌈0.999·200⌉ = 200.
    assert_eq!(percentile(&xs, 99.9), 200.0);
    let ys: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&ys, 95.0), 10.0);
    assert_eq!(percentile(&ys, 10.0), 1.0);
}

#[test]
fn samples_beyond_a_percentile() {
    assert_eq!(beyond(200, 95.0), 10);
    assert_eq!(beyond(199, 95.0), 9);
    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(beyond(99, 90.0), 9);
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(0, 50.0), 0);
    assert!(supported(200, 95.0));
    assert!(!supported(199, 95.0));
}

#[test]
fn highest_percentile_with_ten_beyond() {
    assert_eq!(highest_supported(10_000), Some(99.9));
    assert_eq!(highest_supported(9_999), Some(99.0));
    assert_eq!(highest_supported(1_000), Some(99.0));
    assert_eq!(highest_supported(999), Some(95.0));
    assert_eq!(highest_supported(200), Some(95.0));
    assert_eq!(highest_supported(199), Some(90.0));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(99), Some(75.0));
    assert_eq!(highest_supported(40), Some(75.0));
    assert_eq!(highest_supported(39), Some(50.0));
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(19), None);
}

#[test]
fn histogram_quantile_interpolates_inside_the_bucket() {
    // 4 zeros, then 4 values in [8, 16).
    let buckets = [(0, 4), (8, 4)];
    assert_eq!(hist_quantile(&buckets, 0.5), 0.0);
    assert_eq!(hist_quantile(&buckets, 0.75), 12.0);
    assert_eq!(hist_quantile(&buckets, 1.0), 16.0);
    assert_eq!(hist_quantile(&[], 0.5), 0.0);
}

#[test]
fn windowed_percentiles() {
    // 400 samples: p95 of a window of n needs n − ⌈0.95·n⌉ ≥ 10, so n ≥ 200
    // and two windows of 200. Window 1 is 1..=200 (p95 = 190), window 2 is
    // 1001..=1200 (p95 = 1190); the median of the two is their mean.
    let xs: Vec<f64> = (1..=200).chain(1001..=1200).map(f64::from).collect();
    assert_eq!(windowed_percentile(&xs, 95.0), (690.0, 2));
    // p50 of 400 supports ten windows of 40 (20 beyond each). Nine windows
    // hold 0..40 (p50 = rank 20, i.e. 19) and one stalled window holds
    // 1000s: the stall does not move the median.
    let mut ys: Vec<f64> = (0..9).flat_map(|_| (0..40).map(f64::from)).collect();
    ys.extend((0..40).map(|x| 1000.0 + f64::from(x)));
    assert_eq!(windowed_percentile(&ys, 50.0), (19.0, 10));
    // Too few for two windows: the plain percentile.
    let zs: Vec<f64> = (1..=199).map(f64::from).collect();
    assert_eq!(windowed_percentile(&zs, 95.0), (percentile(&zs, 95.0), 1));
    // The remainder goes to the last window: 401 samples make windows of
    // 200 and 201.
    let mut ws = xs.clone();
    ws.push(5000.0);
    // Window 2 is 1001..=1200 plus 5000: rank ⌈0.95·201⌉ = 191, i.e. 1191.
    assert_eq!(windowed_percentile(&ws, 95.0), ((190.0 + 1191.0) / 2.0, 2));
}
