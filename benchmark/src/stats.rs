//! Order statistics over the samples of one metric.

/// Median, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `xs` (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric without a sample is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    median_of_sorted(&sorted(xs))
}

/// Summarize the samples of one metric (same panic as [`median`]).
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of no samples");
    let v = sorted(xs);
    Summary { median: median_of_sorted(&v), min: v[0], max: v[v.len() - 1], n: v.len() }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(xs, n=4)`
/// returns (the "exclusive" method) — the spread the benchmark contract
/// judges steadiness by. `None` below two samples or at a zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median_of_sorted(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(s, Summary { median: 3.0, min: 1.0, max: 5.0, n: 3 });
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { median: 2.5, min: 1.0, max: 4.0, n: 4 });
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = quartile_spread(&xs).expect("ten samples");
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let got = quartile_spread(&[1.0, 2.0]).expect("two samples");
        assert!((got - 1.0).abs() < 1e-12, "{got}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
