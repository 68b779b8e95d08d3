//! Summary statistics: numerically stable moments and percentiles.

/// Summary statistics of a univariate sample.
///
/// Mean and variance are accumulated with Welford's online algorithm, which
/// stays accurate on the many-orders-of-magnitude quantities typical of
/// heavy-tailed network data (user counts spanning `1..10^8`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean; 0 for an empty sample.
    pub mean: f64,
    /// Unbiased sample variance (`n - 1` denominator); 0 when `n < 2`.
    pub variance: f64,
    /// Smallest sample; `+inf` for an empty sample.
    pub min: f64,
    /// Largest sample; `-inf` for an empty sample.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `values` (non-finite entries are skipped).
    pub fn from_slice(values: &[f64]) -> Self {
        let mut n = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in values {
            if !x.is_finite() {
                continue;
            }
            n += 1;
            let d = x - mean;
            mean += d / n as f64;
            m2 += d * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            n,
            mean: if n == 0 { 0.0 } else { mean },
            variance: if n < 2 { 0.0 } else { m2 / (n as f64 - 1.0) },
            min,
            max,
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// `q`-th percentile (`0 ≤ q ≤ 100`) using linear interpolation between
/// order statistics (the common "type 7" definition). Returns `None` for an
/// empty sample or out-of-range `q`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample in percentile"));
    let h = (sorted.len() - 1) as f64 * q / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median of a sample (50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.variance, 0.0);
        assert_eq!((s.min, s.max), (3.5, 3.5));
    }

    #[test]
    fn known_moments() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population variance is 4; unbiased sample variance is 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn skips_non_finite() {
        let s = Summary::from_slice(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_is_stable_with_large_offset() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let base = 1e9;
        let vals: Vec<f64> = [4.0, 7.0, 13.0, 16.0].iter().map(|x| x + base).collect();
        let s = Summary::from_slice(&vals);
        assert!(
            (s.variance - 30.0).abs() < 1e-6,
            "variance was {}",
            s.variance
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&v, 101.0), None);
        assert_eq!(percentile(&v, -0.1), None);
    }

    #[test]
    fn median_odd_length() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }
}
