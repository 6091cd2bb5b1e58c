//! Exact order statistics over the benchmark's own samples.
//!
//! Latency quantiles are computed here from every recorded sample,
//! never read from `voyager-obs`'s log2-bucketed `Histogram` (whose
//! quantiles can be off by up to 2x).

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// sample such that at least `q · n` samples are ≤ it (the workspace's
/// [`voyager_obs::nearest_rank`] rule). `None` for an empty slice; `q`
/// is clamped to `[0, 1]` (NaN reads as 0).
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    voyager_obs::nearest_rank(sorted.len(), q).map(|i| sorted[i])
}

/// Sorts `samples` in place and returns its nearest-rank quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    nearest_rank(samples, q)
}

/// Median of repeated measurements (mean of the two middle values for
/// an even count; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QS: [f64; 4] = [0.0, 0.5, 0.99, 1.0];

    #[test]
    fn nearest_rank_of_no_samples_is_none() {
        for q in QS {
            assert_eq!(nearest_rank(&[], q), None);
        }
    }

    #[test]
    fn nearest_rank_of_one_sample_is_that_sample() {
        for q in QS {
            assert_eq!(nearest_rank(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn nearest_rank_of_two_samples_takes_the_lower_up_to_the_median() {
        let s = [1.0, 2.0];
        let got: Vec<_> = QS.iter().map(|&q| nearest_rank(&s, q)).collect();
        assert_eq!(got, [Some(1.0), Some(1.0), Some(2.0), Some(2.0)]);
    }

    #[test]
    fn nearest_rank_of_a_hundred_samples_is_the_ranked_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let got: Vec<_> = QS.iter().map(|&q| nearest_rank(&s, q)).collect();
        assert_eq!(got, [Some(1.0), Some(50.0), Some(99.0), Some(100.0)]);
    }

    #[test]
    fn quantile_sorts_before_ranking() {
        let mut s = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&mut s, 0.5), Some(2.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
