//! Order statistics over host-time samples.

/// Sort a sample set in place (NaNs last) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile (0..=1) of a sorted sample set by linear
/// interpolation; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

/// The median of a sample set; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// The highest percentile of a sorted sample set that still has at least
/// ten samples beyond it, from the ladder 50, 90, 99, 99.9, 99.99. Returns
/// `(percentile, value)`; with fewer than 20 samples there is no such
/// percentile and the maximum is returned as percentile 100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let mut best = None;
    for p in [50.0, 90.0, 99.0, 99.9, 99.99] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            best = Some(p);
        }
    }
    match best {
        Some(p) => (p, quantile_sorted(sorted, p / 100.0)),
        None => (100.0, sorted.last().copied().unwrap_or(0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..1_000).map(f64::from).collect();
        assert_eq!(tail(&s).0, 99.0);
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&s).0, 90.0);
        assert_eq!(tail(&[1.0, 2.0]), (100.0, 2.0));
    }
}
