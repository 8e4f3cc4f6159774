//! Percentile maths over exact samples.
//!
//! Every latency sample a run takes is kept (a run holds at most a few
//! tens of thousands), so percentiles are exact order statistics rather
//! than histogram estimates. Percentiles use the nearest-rank rule, and
//! a percentile is only reported when the sample supports it: p99 needs
//! at least ten samples beyond it, i.e. n ≥ 1000.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
/// `q` is a fraction in `(0, 1]`. Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Ascending copy of `values` (NaN-free by construction of callers).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (nearest-rank, so always a real sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency summary of one phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples, failures included.
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Windows `p99` is the median of (see [`summarize_windowed`]).
    pub windows: usize,
}

/// Summarise latency samples (ms). Failed requests must already be in
/// `samples` as a value past any limit, so they count as misses.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        p50: percentile(&s, 0.50),
        p90: percentile(&s, 0.90),
        p99: percentile(&s, 0.99),
        windows: 1,
    }
}

/// Like [`summarize`], but p99 is the median of the p99s of
/// consecutive windows of at least `min_window` samples (so each window
/// still has ten samples beyond its p99 at `min_window` = 1000): one
/// transient stall of the machine moves one window, not the result.
pub fn summarize_windowed(samples_in_order: &[f64], min_window: usize) -> Summary {
    let windows = (samples_in_order.len() / min_window.max(1)).max(1);
    let per = samples_in_order.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples_in_order.len()
            } else {
                (w + 1) * per
            };
            percentile(&sorted(&samples_in_order[w * per..end]), 0.99)
        })
        .collect();
    Summary {
        p99: median(&p99s),
        windows,
        ..summarize(samples_in_order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_of_1000_samples_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1, 0.99), 0);
    }

    #[test]
    fn failures_recorded_past_the_limit_drive_p99() {
        // 985 fast successes and 15 failures recorded at the client
        // timeout: more than 1% failed, so p99 is the timeout.
        let mut v = vec![1.0; 985];
        v.extend(std::iter::repeat_n(2000.0, 15));
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p99, 2000.0);
        // With only 9 failures p99 stays on the successes.
        let mut w = vec![1.0; 991];
        w.extend(std::iter::repeat_n(2000.0, 9));
        assert_eq!(summarize(&w).p99, 1.0);
    }

    #[test]
    fn windowed_p99_shrugs_off_one_stalled_window() {
        // 4000 samples; the second 1000 hold a stall.
        let mut v = vec![1.0; 4000];
        for x in &mut v[1000..1100] {
            *x = 50.0;
        }
        let flat = summarize(&v);
        let windowed = summarize_windowed(&v, 1000);
        assert_eq!(windowed.windows, 4);
        assert_eq!(flat.p99, 50.0);
        assert_eq!(windowed.p99, 1.0);
        assert_eq!(windowed.p50, flat.p50);
        // Fewer samples than two windows: one window, the plain p99.
        let short = summarize_windowed(&v[..1500], 1000);
        assert_eq!(short.windows, 1);
        assert_eq!(short.p99, summarize(&v[..1500]).p99);
    }

    #[test]
    fn median_and_mean_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
