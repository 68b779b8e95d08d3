//! Linear and logarithmic histograms.

/// A fixed-width linear histogram over `[lo, hi)`.
///
/// Samples outside the range are counted separately (`underflow` /
/// `overflow`) rather than silently dropped, so totals always reconcile.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite —
    /// these are programming errors, not data errors.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let f = (x - self.lo) / (self.hi - self.lo);
            let idx = ((f * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// `(center, probability density)` pairs; densities integrate to the
    /// in-range probability mass. Empty histogram yields all-zero densities.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let total = self.total() as f64 + self.underflow as f64 + self.overflow as f64;
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let d = if total > 0.0 {
                    c as f64 / (total * w)
                } else {
                    0.0
                };
                (self.bin_center(i), d)
            })
            .collect()
    }
}

/// A histogram with logarithmically spaced bins, the standard tool for
/// visualizing heavy-tailed distributions (degree, betweenness, user counts).
///
/// Bin `i` covers `[lo * ratio^i, lo * ratio^(i+1))`. Densities are
/// normalized per unit of `x` (not per unit of `log x`), so a power law
/// `p(x) ~ x^(-γ)` appears as a straight line of slope `-γ` on log–log axes.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    /// Samples below `lo` (including non-positive ones, which have no
    /// logarithm).
    pub underflow: u64,
    /// Samples at or above the top edge.
    pub overflow: u64,
}

impl LogHistogram {
    /// Creates a log histogram from `lo` to `hi` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo <= 0`, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo > 0.0 && lo < hi && hi.is_finite(), "invalid log range");
        let ratio = (hi / lo).powf(1.0 / bins as f64);
        LogHistogram {
            lo,
            ratio,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = (x / self.lo).ln() / self.ratio.ln();
        let idx = idx as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo * self.ratio.powi(i as i32)
    }

    /// Geometric center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.bin_lo(i) * self.ratio.sqrt()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(geometric center, density per unit x)` for non-empty bins only.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let total: u64 = self.counts.iter().sum::<u64>() + self.underflow + self.overflow;
        if total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let width = self.bin_lo(i) * (self.ratio - 1.0);
                (self.bin_center(i), c as f64 / (total as f64 * width))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 9.99, 10.0, -0.1, f64::NAN] {
            h.add(x);
        }
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.underflow, 2);
        assert_eq!(h.total(), 3);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linear_density_integrates_to_in_range_mass() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [0.1, 0.3, 0.6, 0.9] {
            h.add(x);
        }
        let mass: f64 = h.density().iter().map(|&(_, d)| d * 0.25).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_linear_histogram_density_is_zero() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!(h.density().iter().all(|&(_, d)| d == 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn linear_rejects_bad_range() {
        let _ = Histogram::new(2.0, 1.0, 4);
    }

    #[test]
    fn log_bins_are_geometric() {
        let h = LogHistogram::new(1.0, 1000.0, 3);
        assert!((h.bin_lo(0) - 1.0).abs() < 1e-9);
        assert!((h.bin_lo(1) - 10.0).abs() < 1e-9);
        assert!((h.bin_lo(2) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn log_add_routes_to_correct_bin() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3);
        for x in [1.0, 5.0, 15.0, 999.0, 1000.0, 0.5, 0.0, -3.0] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.underflow, 3);
    }

    #[test]
    fn log_density_recovers_power_law_slope() {
        // Sample an exact discrete Zipf-like set: p(x) ∝ x^-2 over 1..10^4,
        // deterministically via expected counts.
        let mut h = LogHistogram::new(1.0, 1e4, 20);
        for x in 1..10_000u64 {
            let copies = (4e6 / (x * x) as f64).round() as u64;
            for _ in 0..copies {
                h.add(x as f64);
            }
        }
        let d = h.density();
        // Fit slope on log–log via simple least squares; expect ≈ -2.
        let pts: Vec<(f64, f64)> = d
            .iter()
            .filter(|&&(_, y)| y > 0.0)
            .map(|&(x, y)| (x.ln(), y.ln()))
            .collect();
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!((slope + 2.0).abs() < 0.15, "slope was {slope}");
    }

    #[test]
    fn log_density_skips_empty_bins() {
        let mut h = LogHistogram::new(1.0, 100.0, 10);
        h.add(2.0);
        let d = h.density();
        assert_eq!(d.len(), 1);
    }
}
