//! Order statistics for reported timings.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 11] = [
    99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0, 75.0, 50.0,
];

/// Median of `xs` (mean of the middle pair for an even count; NaN when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Smallest of `xs` (NaN when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Element by element, the smallest value over passes: each unit of work
/// at its fastest. Covers the units every pass has (the callers check
/// that the passes agree); empty when there are no passes.
pub fn best_of_passes<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut it = passes.into_iter();
    let mut best = it.next().map(<[f64]>::to_vec).unwrap_or_default();
    for pass in it {
        best.truncate(pass.len());
        for (b, x) in best.iter_mut().zip(pass) {
            *b = b.min(*x);
        }
    }
    best
}

/// Nearest-rank `p`-th percentile of `xs`, `p` in (0, 100] (NaN when
/// empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    v[rank(v.len(), p) - 1]
}

/// How many of `n` samples lie above the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps ranks such as 95% of 200 exact despite 99.9 and
    // friends having no exact binary representation.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn min_and_best_of_passes() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert!(min(&[]).is_nan());
        let (a, b, c) = ([3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 9.0, 0.5]);
        assert_eq!(
            best_of_passes([&a[..], &b[..], &c[..]]),
            vec![2.0, 1.0, 0.5]
        );
        assert_eq!(best_of_passes([&a[..]]), a.to_vec());
        assert_eq!(best_of_passes([&a[..], &b[..2]]), vec![2.0, 1.0]);
        assert!(best_of_passes(std::iter::empty::<&[f64]>()).is_empty());
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 above it, p96 only 8.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(200, 96.0), 8);
        assert_eq!(highest_supported(200), Some(95.0));
        // 300 windows (the live workload): p96 leaves 12.
        assert_eq!(highest_supported(300), Some(96.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(5_000), Some(99.5));
        // 19 samples: the median leaves 9, too few for any tail.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(0), None);
    }
}
