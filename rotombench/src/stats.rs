//! Order statistics shared by every workload and by `--repeat`.

/// Samples a tail percentile must leave beyond it to be reported.
pub const BEYOND: usize = 10;

/// Ascending copy of `xs` (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default exclusive method) gives
/// them, so `--repeat` spreads match the acceptance arithmetic.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest percentile, capped at p99, that leaves at least [`BEYOND`]
/// samples above it: `(quantile, value)` by nearest rank over ascending
/// `sorted` samples, or `None` when there are too few samples for any.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= BEYOND {
        return None;
    }
    // Nearest-rank p99 is rank ceil(0.99 n); it qualifies when at least
    // BEYOND samples rank above it, otherwise fall back to rank n - BEYOND.
    let p99 = (n * 99).div_ceil(100);
    if p99 <= n - BEYOND {
        Some((0.99, sorted[p99 - 1]))
    } else {
        Some(((n - BEYOND) as f64 / n as f64, sorted[n - BEYOND - 1]))
    }
}

/// Nearest-rank quantile `q` in (0, 1] of ascending `sorted` samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 is rank 990 with exactly 10 above it.
        assert_eq!(tail(&xs), Some((0.99, 990.0)));
        // 500 samples: p99 would leave 5 above; fall back to rank 490.
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((0.98, 490.0)));
        // 2000 samples: p99 (rank 1980) leaves 20 above; keep p99.
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((0.99, 1980.0)));
        // 11 samples: rank 1, the only one with ten above it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((1.0 / 11.0, 1.0)));
        assert_eq!(tail(&xs[..10]), None);
        for n in 11..3000usize {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (q, v) = tail(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= BEYOND, "n={n}: only {beyond} beyond");
            assert!(q <= 0.99 + 1e-12, "n={n}: q={q}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }
}
