//! Power-law tail fitting by maximum likelihood.
//!
//! Implements the standard Clauset–Shalizi–Newman toolbox:
//!
//! * continuous MLE `α̂ = 1 + n / Σ ln(x_i / x_min)`,
//! * discrete MLE with the `x_min − 1/2` approximation,
//! * Kolmogorov–Smirnov distance between data and fitted model,
//! * automatic `x_min` selection by KS minimization,
//! * nonparametric bootstrap confidence intervals,
//! * inverse-CDF samplers (used to test estimator consistency and to build
//!   synthetic degree sequences).
//!
//! Exponent convention: the *density* exponent `γ` of `p(x) ∝ x^(−γ)`, the
//! quantity quoted by Internet-topology papers (`γ ≈ 2.2` for the AS map).

use crate::rng::StdRng;
use crate::summary::Summary;

/// A fitted power-law tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Density exponent `γ` of `p(x) ∝ x^(−γ)` for `x ≥ x_min`.
    pub gamma: f64,
    /// Asymptotic standard error `(γ − 1) / sqrt(n_tail)`.
    pub gamma_se: f64,
    /// Lower cutoff of the fitted tail.
    pub xmin: f64,
    /// Number of samples in the tail (`x ≥ x_min`).
    pub n_tail: usize,
    /// Kolmogorov–Smirnov distance between tail data and fitted model.
    pub ks: f64,
}

fn tail(samples: &[f64], xmin: f64) -> Vec<f64> {
    let mut t: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|&x| x.is_finite() && x >= xmin)
        .collect();
    t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    t
}

/// Continuous MLE at a fixed `x_min`. Returns `None` when fewer than two
/// tail samples exist or all tail samples equal `x_min` (the exponent is
/// then infinite).
pub fn fit_continuous(samples: &[f64], xmin: f64) -> Option<PowerLawFit> {
    if xmin <= 0.0 {
        return None;
    }
    let t = tail(samples, xmin);
    let n = t.len();
    if n < 2 {
        return None;
    }
    let log_sum: f64 = t.iter().map(|&x| (x / xmin).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    let gamma = 1.0 + n as f64 / log_sum;
    let ks = ks_continuous(&t, gamma, xmin);
    Some(PowerLawFit {
        gamma,
        gamma_se: (gamma - 1.0) / (n as f64).sqrt(),
        xmin,
        n_tail: n,
        ks,
    })
}

/// Discrete MLE at a fixed integer `x_min` using the continuous
/// approximation with the `x_min − 1/2` shift (accurate for `x_min ≳ 6`,
/// serviceable down to `x_min = 2`; at `x_min = 1` the approximation is
/// visibly biased for steep exponents — prefer [`fit_discrete_auto`], which
/// rarely selects `x_min = 1` on real heavy-tailed data).
pub fn fit_discrete(samples: &[u64], xmin: u64) -> Option<PowerLawFit> {
    if xmin == 0 {
        return None;
    }
    let t: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|&x| x >= xmin)
        .map(|x| x as f64)
        .collect();
    let n = t.len();
    if n < 2 {
        return None;
    }
    let shift = xmin as f64 - 0.5;
    let log_sum: f64 = t.iter().map(|&x| (x / shift).ln()).sum();
    let mut sorted = t;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    fit_tail(log_sum, &sorted, xmin, f64::INFINITY)
}

/// The discrete fit at `x_min` from its tail's log-likelihood sum
/// `Σ ln(x / (x_min − ½))` and the tail sorted ascending; `None` when the
/// sum is not positive. The KS walk stops early at `stop_at`, as
/// [`ks_discrete`] says.
fn fit_tail(log_sum: f64, sorted_tail: &[f64], xmin: u64, stop_at: f64) -> Option<PowerLawFit> {
    if log_sum <= 0.0 {
        return None;
    }
    let n = sorted_tail.len();
    let gamma = 1.0 + n as f64 / log_sum;
    let ks = ks_discrete(sorted_tail, gamma, xmin, stop_at);
    Some(PowerLawFit {
        gamma,
        gamma_se: (gamma - 1.0) / (n as f64).sqrt(),
        xmin: xmin as f64,
        n_tail: n,
        ks,
    })
}

/// Model CCDF of a continuous power law: `P(X ≥ x) = (x / x_min)^(1−γ)`.
fn model_ccdf_continuous(x: f64, gamma: f64, xmin: f64) -> f64 {
    (x / xmin).powf(1.0 - gamma)
}

fn ks_continuous(sorted_tail: &[f64], gamma: f64, xmin: f64) -> f64 {
    let n = sorted_tail.len() as f64;
    let mut ks = 0.0f64;
    for (i, &x) in sorted_tail.iter().enumerate() {
        let emp_lo = i as f64 / n; // empirical CDF just below x
        let emp_hi = (i as f64 + 1.0) / n; // empirical CDF at x
        let model = 1.0 - model_ccdf_continuous(x, gamma, xmin);
        ks = ks.max((model - emp_lo).abs()).max((model - emp_hi).abs());
    }
    ks
}

/// Hurwitz zeta `ζ(s, a) = Σ_{k≥0} (a + k)^(−s)` by direct summation plus an
/// Euler–Maclaurin tail, adequate for the `s ∈ (1, 5]` range used here.
pub fn hurwitz_zeta(s: f64, a: f64) -> f64 {
    debug_assert!(s > 1.0 && a > 0.0);
    const CUT: usize = 64;
    let mut sum = 0.0;
    for k in 0..CUT {
        sum += (a + k as f64).powf(-s);
    }
    let m = a + CUT as f64;
    // ∫_m^∞ t^-s dt + ½ m^-s + s/12 m^{-s-1} (first E-M correction terms)
    sum + m.powf(1.0 - s) / (s - 1.0) + 0.5 * m.powf(-s) + s / 12.0 * m.powf(-s - 1.0)
}

/// KS distance of a discrete fit, walking `x` up from `x_min`. The walk
/// returns early, with the running maximum, once that maximum reaches
/// `stop_at`: callers that keep only a strictly smaller distance discard
/// the candidate either way.
fn ks_discrete(sorted_tail: &[f64], gamma: f64, xmin: u64, stop_at: f64) -> f64 {
    // Discrete model CDF from the zeta normalization.
    let z = hurwitz_zeta(gamma, xmin as f64);
    let n = sorted_tail.len() as f64;
    let max_x = *sorted_tail.last().expect("non-empty tail") as u64;
    // Walk x upward maintaining the model CDF; evaluate at observed points.
    let mut cdf = 0.0f64;
    let mut ks = 0.0f64;
    let mut idx = 0usize;
    for x in xmin..=max_x {
        cdf += (x as f64).powf(-gamma) / z;
        // Empirical CDF after consuming all samples <= x.
        while idx < sorted_tail.len() && sorted_tail[idx] as u64 <= x {
            idx += 1;
        }
        let emp = idx as f64 / n;
        ks = ks.max((cdf - emp).abs());
        if ks >= stop_at {
            break;
        }
        if x > xmin + 100_000 {
            break; // guard: tails beyond 1e5 values contribute negligibly
        }
    }
    ks
}

/// Fits a discrete power law, scanning `x_min` up over the distinct sample
/// values and keeping the fit with the smallest KS distance (the CSN
/// procedure; the first of equal distances wins). The scan stops at the
/// first `x_min` that leaves fewer than 10 tail samples. `None` when the
/// samples hold fewer than two distinct values or no candidate fits.
///
/// Every candidate equals [`fit_discrete`] at its `x_min`, bit for bit, in
/// one pass: the tail is shrunk in place, in sample order, so the
/// log-likelihood sums its terms in the same order, and the empirical CDF
/// is read off one sorted copy of the samples. A candidate's KS walk stops
/// once its running maximum reaches the best distance so far.
pub fn fit_discrete_auto(samples: &[u64]) -> Option<PowerLawFit> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.first() == sorted.last() {
        return None;
    }
    let sorted_f64: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
    let mut tail = samples.to_vec();
    let mut best: Option<PowerLawFit> = None;
    let mut start = 0;
    while sorted.len() - start >= 10 {
        let xmin = sorted[start];
        tail.retain(|&x| x >= xmin);
        if xmin > 0 {
            let shift = xmin as f64 - 0.5;
            let log_sum: f64 = tail.iter().map(|&x| (x as f64 / shift).ln()).sum();
            let bound = best.map_or(f64::INFINITY, |b| b.ks);
            if let Some(fit) = fit_tail(log_sum, &sorted_f64[start..], xmin, bound) {
                if best.map_or(true, |b| fit.ks < b.ks) {
                    best = Some(fit);
                }
            }
        }
        start += sorted[start..].partition_point(|&x| x == xmin);
    }
    best
}

/// Bootstrap percentile confidence interval for the exponent at fixed
/// `x_min`: resamples the tail `reps` times and returns `(lo, hi)` spanning
/// the central 90% of refitted exponents, plus the refit summary.
pub fn bootstrap_gamma_ci(
    samples: &[u64],
    xmin: u64,
    reps: usize,
    rng: &mut StdRng,
) -> Option<(f64, f64, Summary)> {
    let tail: Vec<u64> = samples.iter().copied().filter(|&x| x >= xmin).collect();
    if tail.len() < 2 || reps == 0 {
        return None;
    }
    let mut gammas = Vec::with_capacity(reps);
    let mut resample = vec![0u64; tail.len()];
    for _ in 0..reps {
        for slot in resample.iter_mut() {
            *slot = tail[rng.gen_range(0..tail.len())];
        }
        if let Some(fit) = fit_discrete(&resample, xmin) {
            gammas.push(fit.gamma);
        }
    }
    if gammas.is_empty() {
        return None;
    }
    let lo = crate::summary::percentile(&gammas, 5.0)?;
    let hi = crate::summary::percentile(&gammas, 95.0)?;
    Some((lo, hi, Summary::from_slice(&gammas)))
}

/// Samples a continuous power law `p(x) ∝ x^(−γ)`, `x ≥ x_min`, by inverse
/// CDF.
///
/// # Panics
///
/// Panics if `gamma <= 1` or `xmin <= 0` (not a normalizable tail).
pub fn sample_continuous(gamma: f64, xmin: f64, rng: &mut StdRng) -> f64 {
    assert!(gamma > 1.0 && xmin > 0.0, "not a normalizable power law");
    let u: f64 = rng.gen_range(0.0..1.0);
    xmin * (1.0 - u).powf(-1.0 / (gamma - 1.0))
}

/// Samples a discrete power law by the continuous-approximation inversion
/// (`⌊(x_min − ½)(1 − u)^(−1/(γ−1)) + ½⌋`), the standard CSN recipe.
///
/// # Panics
///
/// Panics if `gamma <= 1` or `xmin == 0`.
pub fn sample_discrete(gamma: f64, xmin: u64, rng: &mut StdRng) -> u64 {
    assert!(gamma > 1.0 && xmin > 0, "not a normalizable power law");
    let u: f64 = rng.gen_range(0.0..1.0);
    let x = (xmin as f64 - 0.5) * (1.0 - u).powf(-1.0 / (gamma - 1.0)) + 0.5;
    // Cap at a huge but finite value to avoid u ≈ 1 overflow.
    x.min(1e15) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    /// The plain x_min scan, one full [`fit_discrete`] per candidate: the
    /// oracle [`fit_discrete_auto`] must match bit for bit.
    fn multipass_fit_discrete_auto(samples: &[u64]) -> Option<PowerLawFit> {
        let mut distinct: Vec<u64> = samples.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() < 2 {
            return None;
        }
        let mut best: Option<PowerLawFit> = None;
        for &xmin in &distinct {
            let tail_n = samples.iter().filter(|&&x| x >= xmin).count();
            if tail_n < 10 {
                break;
            }
            if let Some(fit) = fit_discrete(samples, xmin) {
                if best.as_ref().map_or(true, |b| fit.ks < b.ks) {
                    best = Some(fit);
                }
            }
        }
        best
    }

    fn fit_bits(fit: Option<PowerLawFit>) -> Option<(u64, u64, u64, usize, u64)> {
        fit.map(|f| {
            (
                f.gamma.to_bits(),
                f.gamma_se.to_bits(),
                f.xmin.to_bits(),
                f.n_tail,
                f.ks.to_bits(),
            )
        })
    }

    #[test]
    fn auto_fit_matches_the_multipass_scan_bit_for_bit() {
        crate::rng::check(300, |rng| {
            let len = rng.gen_range(0..400usize);
            let gamma = rng.gen_range(1.6..3.5);
            let xmin = rng.gen_range(1..6u64);
            let mut xs: Vec<u64> = (0..len)
                .map(|_| sample_discrete(gamma, xmin, rng).min(5000))
                .collect();
            // Sometimes a uniform head, zeros, or a plateau of one value.
            for x in xs.iter_mut() {
                match rng.gen_range(0..20u64) {
                    0 => *x = rng.gen_range(0..4u64),
                    1 => *x = 7,
                    _ => {}
                }
            }
            assert_eq!(
                fit_bits(fit_discrete_auto(&xs)),
                fit_bits(multipass_fit_discrete_auto(&xs)),
                "{xs:?}"
            );
        });
        for xs in [
            vec![],
            vec![3; 50],
            vec![0; 12],
            (0..12).collect::<Vec<u64>>(),
        ] {
            assert_eq!(
                fit_bits(fit_discrete_auto(&xs)),
                fit_bits(multipass_fit_discrete_auto(&xs))
            );
        }
    }

    #[test]
    fn continuous_mle_recovers_planted_exponent() {
        let mut rng = seeded_rng(7);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| sample_continuous(2.5, 1.0, &mut rng))
            .collect();
        let fit = fit_continuous(&xs, 1.0).unwrap();
        assert!((fit.gamma - 2.5).abs() < 0.05, "gamma = {}", fit.gamma);
        assert!(fit.ks < 0.02);
        assert_eq!(fit.n_tail, 20_000);
    }

    #[test]
    fn discrete_mle_recovers_planted_exponent() {
        let mut rng = seeded_rng(11);
        let xs: Vec<u64> = (0..20_000)
            .map(|_| sample_discrete(2.2, 5, &mut rng))
            .collect();
        let fit = fit_discrete(&xs, 5).unwrap();
        assert!((fit.gamma - 2.2).abs() < 0.07, "gamma = {}", fit.gamma);
        assert!(fit.gamma_se < 0.02);
    }

    #[test]
    fn auto_xmin_finds_transition() {
        // Mixture: uniform noise below 20, power law above. The KS scan's
        // x_min of a single sample scatters well past the transition (it
        // picks the best-fitting tail, not the true onset), so the claim
        // is about its median over independent samples; each fitted
        // exponent must still be close.
        let mut xmins: Vec<f64> = (0..5)
            .map(|stream| {
                let mut rng = crate::rng::child_rng(3, stream);
                let mut xs: Vec<u64> = (0..4000).map(|_| rng.gen_range(1..20)).collect();
                xs.extend((0..8000).map(|_| sample_discrete(2.4, 20, &mut rng)));
                let fit = fit_discrete_auto(&xs).unwrap();
                assert!(
                    (fit.gamma - 2.4).abs() < 0.15,
                    "stream {stream}: gamma = {}",
                    fit.gamma
                );
                fit.xmin
            })
            .collect();
        xmins.sort_by(f64::total_cmp);
        assert!((12.0..=40.0).contains(&xmins[2]), "x_min: {xmins:?}");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(fit_continuous(&[], 1.0).is_none());
        assert!(fit_continuous(&[2.0], 1.0).is_none());
        assert!(
            fit_continuous(&[1.0, 1.0, 1.0], 1.0).is_none(),
            "zero log-sum"
        );
        assert!(fit_continuous(&[1.0, 2.0], 0.0).is_none());
        assert!(fit_discrete(&[], 1).is_none());
        assert!(fit_discrete(&[5, 9], 0).is_none());
        assert!(fit_discrete_auto(&[3; 50]).is_none());
    }

    #[test]
    fn hurwitz_zeta_matches_riemann_values() {
        // ζ(2) = π²/6, ζ(4) = π⁴/90.
        let pi = std::f64::consts::PI;
        assert!((hurwitz_zeta(2.0, 1.0) - pi * pi / 6.0).abs() < 1e-8);
        assert!((hurwitz_zeta(4.0, 1.0) - pi.powi(4) / 90.0).abs() < 1e-10);
        // ζ(s, 2) = ζ(s) − 1.
        assert!((hurwitz_zeta(2.0, 2.0) - (pi * pi / 6.0 - 1.0)).abs() < 1e-8);
    }

    #[test]
    fn bootstrap_ci_brackets_point_estimate() {
        let mut rng = seeded_rng(21);
        let xs: Vec<u64> = (0..3000)
            .map(|_| sample_discrete(2.3, 2, &mut rng))
            .collect();
        let fit = fit_discrete(&xs, 2).unwrap();
        let (lo, hi, summary) = bootstrap_gamma_ci(&xs, 2, 60, &mut rng).unwrap();
        assert!(
            lo <= fit.gamma && fit.gamma <= hi,
            "{lo} !<= {} !<= {hi}",
            fit.gamma
        );
        assert!(hi - lo < 0.3);
        assert_eq!(summary.n, 60);
    }

    #[test]
    fn bootstrap_degenerate() {
        let mut rng = seeded_rng(1);
        assert!(bootstrap_gamma_ci(&[1], 1, 10, &mut rng).is_none());
        assert!(bootstrap_gamma_ci(&[1, 2, 3], 1, 0, &mut rng).is_none());
    }

    #[test]
    fn samplers_respect_xmin() {
        let mut rng = seeded_rng(5);
        for _ in 0..1000 {
            assert!(sample_continuous(3.0, 2.5, &mut rng) >= 2.5);
            assert!(sample_discrete(3.0, 4, &mut rng) >= 4);
        }
    }

    #[test]
    #[should_panic(expected = "not a normalizable power law")]
    fn sampler_rejects_flat_exponent() {
        let mut rng = seeded_rng(5);
        let _ = sample_continuous(1.0, 1.0, &mut rng);
    }

    #[test]
    fn ks_increases_with_model_mismatch() {
        let mut rng = seeded_rng(13);
        let xs: Vec<f64> = (0..5000)
            .map(|_| sample_continuous(2.5, 1.0, &mut rng))
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ks_good = ks_continuous(&sorted, 2.5, 1.0);
        let ks_bad = ks_continuous(&sorted, 4.0, 1.0);
        assert!(ks_good < ks_bad);
    }
}
