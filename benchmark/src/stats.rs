//! Order statistics: medians, nearest-rank percentiles, the "ten samples
//! beyond" rule for the tail percentile, and quartiles the way the driver
//! computes them (Python's `statistics.quantiles(values, n=4)`).

/// Percentile ladder for [`tail_percentile`], highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A copy of `values` in ascending order. Failed operations are recorded as
/// `+inf` and sort last; NaN never enters a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with at
/// least `p` percent of the sample at or below it. 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of the ladder 99/95/90/75 that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; 50 when none has (a handful of
/// training sessions supports no tail claim, so the tail *is* the median).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Samples per window of [`tail`]: a quarter of a second of the serving
/// workloads' 400 req/s, whose p90 has exactly ten samples beyond it. Windows
/// of 400 samples with p95 each, and the median over them, were tried first:
/// a host that steals a twentieth of the time in bursts reaches a p95 in
/// every window, and ten runs of the same code then spread by 25-55 %.
pub const TAIL_WINDOW: usize = 100;

/// Which of the windows' values [`tail`] reports: the lower quartile.
const CALM_QUARTILE: f64 = 25.0;

/// The tail of a sample given in the order it was scheduled:
/// `(percentile, value, windows)`. The sample is cut into as many consecutive
/// windows of at least [`TAIL_WINDOW`] samples as fit (one, below 200); each
/// window reports its value at [`tail_percentile`] — the [`median`] itself
/// when that is the 50th, so a sample too small for a tail claim reports one
/// number twice instead of two medians — and the lower quartile over windows
/// is the tail. The machine only ever adds latency, in bursts, so the calmest
/// quarter of the windows is the program's own tail and a busy host moves it
/// little; a tail the program really has is in every window.
pub fn tail(in_order: &[f64]) -> (f64, f64, usize) {
    let n = in_order.len();
    let windows = (n / TAIL_WINDOW).max(1);
    let p = tail_percentile(n / windows);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| &in_order[w * n / windows..(w + 1) * n / windows])
        .map(|win| {
            if p == 50.0 {
                median(win)
            } else {
                percentile(&sorted(win), p)
            }
        })
        .collect();
    (p, percentile(&sorted(&per_window), CALM_QUARTILE), windows)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64 / 100.0).ceil() as usize).min(n)
}

/// `(q1, median, q3)` exactly as `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against each metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // A failed request is +inf and occupies the tail.
        let mut w = vec![1.0; 99];
        w.push(f64::INFINITY);
        assert_eq!(percentile(&sorted(&w), 99.0), 1.0);
        assert_eq!(percentile(&sorted(&w), 99.5), f64::INFINITY);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond; of 999, only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0, 10.0]), (50.0, 2.5, 1));
        assert_eq!(tail(&[]), (50.0, 0.0, 1));
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 180.0, 1));
        // p99.9 of 7200 samples has fewer than ten beyond: printed, never a metric.
        assert!(samples_beyond(7200, 99.9) < MIN_BEYOND);
    }

    #[test]
    fn windowed_tail_ignores_a_busy_host_and_keeps_a_real_tail() {
        // 3 600 samples in schedule order: 36 windows of 100, p90 each.
        let calm: Vec<f64> = (0..3600)
            .map(|i| 1.0 + f64::from(i % 100) / 100.0)
            .collect();
        let (p, base, windows) = tail(&calm);
        assert_eq!((p, windows), (90.0, 36));
        assert_eq!(base, 1.0 + 89.0 / 100.0);
        // A host that stalls 20 requests in every second window (a tenth of
        // all requests, 50 ms at 400 req/s each time) leaves the calm half.
        let mut stalled = calm.clone();
        for w in (0..36).step_by(2) {
            for x in &mut stalled[w * 100 + 40..w * 100 + 60] {
                *x += 80.0;
            }
        }
        assert_eq!(tail(&stalled).1, base);
        assert!(
            percentile(&sorted(&stalled), 95.0) > 80.0,
            "the whole-sample p95 does move"
        );
        // A tail that is there throughout — 12 % slow requests — shows.
        let heavy: Vec<f64> = calm
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 25 < 3 { 9.0 } else { *x })
            .collect();
        assert_eq!(tail(&heavy).1, 9.0);
        // Below two full windows there is one window: the plain percentile.
        assert_eq!(tail(&calm[..199]).2, 1);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }
}
