//! Scalar distributions built directly on [`crate::rng::StdRng`].
//!
//! The handful of distributions needed (exponential waiting times,
//! log-normal measurement noise, Zipf heavy tails, standard normal)
//! are implemented here with explicit, testable numerics.

use crate::rng::StdRng;

/// Samples a standard normal via the Box–Muller transform.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    // u1 in (0, 1] to keep ln(u1) finite.
    let u1: f64 = 1.0 - rng.gen_range(0.0..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, std_dev²)`.
///
/// # Panics
///
/// Panics if `std_dev < 0`.
pub fn normal(mean: f64, std_dev: f64, rng: &mut StdRng) -> f64 {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Samples a log-normal: `exp(N(mu, sigma²))`.
///
/// `mu`/`sigma` are the parameters of the underlying normal (natural-log
/// scale). Used for multiplicative measurement noise on growth traces.
pub fn log_normal(mu: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    normal(mu, sigma, rng).exp()
}

/// Samples an exponential with the given `rate` (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate <= 0`.
pub fn exponential(rate: f64, rng: &mut StdRng) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
    -u.ln() / rate
}

/// A Zipf distribution over `1..=n` with exponent `s`
/// (`P(X = k) ∝ k^(−s)`), sampled by inversion on a precomputed CDF.
///
/// Construction is `O(n)`, each draw `O(log n)`. For unbounded power-law
/// integers use [`crate::powerlaw::sample_discrete`].
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf sampler over `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a value in `1..=n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => i + 2,
            Err(i) => i + 1,
        }
        .min(self.cdf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::summary::Summary;

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(10);
        let xs: Vec<f64> = (0..50_000).map(|_| normal(3.0, 2.0, &mut rng)).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean - 3.0).abs() < 0.05, "mean {}", s.mean);
        assert!((s.std_dev() - 2.0).abs() < 0.05, "sd {}", s.std_dev());
    }

    #[test]
    fn log_normal_median() {
        let mut rng = seeded_rng(11);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| log_normal(1.0, 0.5, &mut rng))
            .collect();
        let med = crate::summary::median(&xs).unwrap();
        assert!((med - 1.0f64.exp()).abs() < 0.08, "median {med}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = seeded_rng(12);
        let xs: Vec<f64> = (0..50_000).map(|_| exponential(4.0, &mut rng)).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean - 0.25).abs() < 0.01, "mean {}", s.mean);
        assert!(s.min >= 0.0);
    }

    /// The share of 100 000 draws that lands on each of `1..=support`.
    fn zipf_shares(support: usize, s: f64) -> Vec<f64> {
        let z = Zipf::new(support, s);
        let mut rng = seeded_rng(14);
        let mut counts = vec![0usize; support];
        for _ in 0..100_000 {
            let k = z.sample(&mut rng);
            assert!((1..=support).contains(&k));
            counts[k - 1] += 1;
        }
        counts.iter().map(|&c| c as f64 / 100_000.0).collect()
    }

    #[test]
    fn zipf_frequencies_match_pmf() {
        let norm: f64 = (1..=5).map(|k| 1.0 / k as f64).sum();
        for (i, got) in zipf_shares(5, 1.0).into_iter().enumerate() {
            let pmf = 1.0 / ((i + 1) as f64 * norm);
            assert!((got - pmf).abs() < 0.01, "k={}: {got} vs {pmf}", i + 1);
        }
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        for got in zipf_shares(4, 0.0) {
            assert!((got - 0.25).abs() < 0.01, "{got}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty support")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        let mut rng = seeded_rng(1);
        let _ = exponential(0.0, &mut rng);
    }
}
