//! Order statistics for samples: median, quartiles, and the tail
//! percentile rule.

/// Sorts a copy of `values` ascending (NaN-free inputs assumed; a NaN
/// sorts last rather than panicking).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)` — so a spread computed
/// here matches one computed from the same values elsewhere. `None`
/// for an empty slice; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// The tail percentile a sample of this size supports: the highest of
/// p99.9, p99 and p90 with at least ten samples beyond it, as
/// `(percentile, value)` by nearest rank. `None` — p90 refused — below
/// 100 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    [(99.9, 1000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|&(_, per_ten)| n >= 10 * per_ten)
        .map(|(p, per_ten)| (p, v[n - n / per_ten - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        for n in [100usize, 137, 999, 1000, 2500, 10_000] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (p, value) = tail(&v).expect("n >= 100 supports a tail");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: p{p} leaves {beyond} beyond");
            let expected = if n >= 10_000 {
                99.9
            } else if n >= 1000 {
                99.0
            } else {
                90.0
            };
            assert_eq!(p, expected, "n={n}");
        }
        // Exactly 100 samples: p90 is the 90th value, ten lie beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }
}
