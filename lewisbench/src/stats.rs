//! Percentiles as the benchmark reports them.

/// Tail percentiles tried from the highest down, in permille.
const TAIL_PERMILLE: [u64; 5] = [990, 950, 900, 750, 500];

/// The nearest-rank percentile `permille / 1000` of ascending `sorted`.
pub fn percentile(sorted: &[f64], permille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// The highest of p99, p95, p90, p75 and p50 that has at least ten
/// samples beyond it, as `(permille, value)`; `None` below 20 samples.
pub fn tail(sorted: &[f64]) -> Option<(u64, f64)> {
    let n = sorted.len() as u64;
    TAIL_PERMILLE
        .iter()
        .find(|&&q| n - (q * n).div_ceil(1000) >= 10)
        .map(|&q| (q, percentile(sorted, q)))
}

/// `"p99"`, `"p95"`, … for a tail permille.
pub fn tail_name(permille: u64) -> String {
    format!("p{}", permille / 10)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample summarised as the report needs it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_permille: u64,
    pub tail: f64,
    pub max: f64,
}

/// Summarise `values`; `None` when there are too few for a tail.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail_permille, tail) = tail(&sorted)?;
    Some(Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 500),
        tail_permille,
        tail,
        max: sorted[sorted.len() - 1],
    })
}

/// Fewest samples in one window of [`windowed`].
pub const WINDOW: usize = 1000;

/// Latency figures as medians over consecutive windows.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub n: usize,
    pub windows: usize,
    pub per_window: usize,
    /// Median over windows of each window's p50.
    pub p50: f64,
    /// The tail percentile every window reports (the smallest window's).
    pub tail_permille: u64,
    /// Samples beyond the tail in the smallest window.
    pub beyond: usize,
    /// Median over windows of each window's value at `tail_permille`.
    pub tail: f64,
}

/// Cut `values` (in send order) into `max(1, n / WINDOW)` equal
/// consecutive windows; `None` below 20 samples.
pub fn windowed(values: &[f64]) -> Option<Windowed> {
    let windows = (values.len() / WINDOW).max(1);
    let per_window = values.len() / windows;
    let (tail_permille, _) = tail(&sorted(&values[..per_window]))?;
    let n_w = per_window as u64;
    let beyond = (n_w - (tail_permille * n_w).div_ceil(1000)) as usize;
    let mut p50s = Vec::with_capacity(windows);
    let mut tails = Vec::with_capacity(windows);
    for w in 0..windows {
        let window = sorted(&values[w * per_window..(w + 1) * per_window]);
        p50s.push(percentile(&window, 500));
        tails.push(percentile(&window, tail_permille));
    }
    Some(Windowed {
        n: values.len(),
        windows,
        per_window,
        p50: median(&p50s),
        tail_permille,
        beyond,
        tail: median(&tails),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it
        assert_eq!(tail(&ramp(1000)), Some((990, 990.0)));
        // 999 samples: p99 would leave 9, so p95 (49 beyond)
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(950));
        // 200 samples: p95 leaves 10
        assert_eq!(tail(&ramp(200)), Some((950, 190.0)));
        // 100 samples: p90 leaves 10
        assert_eq!(tail(&ramp(100)), Some((900, 90.0)));
        // 40 samples: p75 leaves 10
        assert_eq!(tail(&ramp(40)), Some((750, 30.0)));
        // 20 samples: only the median leaves 10
        assert_eq!(tail(&ramp(20)), Some((500, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn windows_hold_at_least_a_thousand_samples() {
        // 2500 samples: two windows of 1250, p99 in each
        let mut v = ramp(1250);
        v.extend(ramp(1250).iter().map(|x| x * 3.0));
        let w = windowed(&v).unwrap();
        assert_eq!((w.windows, w.per_window, w.tail_permille), (2, 1250, 990));
        assert_eq!(w.p50, (625.0 + 1875.0) / 2.0);
        // 640 samples: one window, p95
        let w = windowed(&ramp(640)).unwrap();
        assert_eq!((w.windows, w.tail_permille, w.beyond), (1, 950, 32));
        assert!(windowed(&ramp(19)).is_none());
    }

    #[test]
    fn nearest_rank_and_median() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 500), 5.0);
        assert_eq!(percentile(&v, 1000), 10.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_name(990), "p99");
        assert_eq!(tail_name(500), "p50");
    }
}
