//! Binned conditional means ("spectra").
//!
//! Measures like the clustering spectrum `c(k)` or the average
//! nearest-neighbors degree `k̄_nn(k)` are conditional means of a per-node
//! quantity given the node degree. For small `k` we can average exactly per
//! integer degree; for the sparse heavy tail, logarithmic bins pool nearby
//! degrees to tame noise.

/// A spectrum: for each bin, the mean of `y` over the samples whose `x`
/// landed in that bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSpectrum {
    /// Representative `x` of each non-empty bin (exact value or geometric
    /// center), ascending.
    pub x: Vec<f64>,
    /// Mean of `y` per bin.
    pub y: Vec<f64>,
    /// Number of samples per bin.
    pub count: Vec<usize>,
}

impl BinnedSpectrum {
    /// Iterates `(x, mean y, count)` triples.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64, usize)> + '_ {
        self.x
            .iter()
            .zip(&self.y)
            .zip(&self.count)
            .map(|((&x, &y), &c)| (x, y, c))
    }
}

/// Exact conditional mean of `y` for every distinct integer `x` (e.g. mean
/// clustering for every degree value). Pairs are `(x[i], y[i])`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn binned_mean_by_int(x: &[u64], y: &[f64]) -> BinnedSpectrum {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    let mut pairs: Vec<(u64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
    pairs.sort_by_key(|p| p.0);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut counts = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let v = pairs[i].0;
        let mut sum = 0.0;
        let mut c = 0usize;
        while i < pairs.len() && pairs[i].0 == v {
            sum += pairs[i].1;
            c += 1;
            i += 1;
        }
        xs.push(v as f64);
        ys.push(sum / c as f64);
        counts.push(c);
    }
    BinnedSpectrum {
        x: xs,
        y: ys,
        count: counts,
    }
}

/// Log-binned conditional mean: `x` values are pooled into geometric bins
/// with `bins_per_decade` bins per factor of ten, and the mean of `y` is
/// reported at each bin's geometric center. Samples with `x <= 0` are
/// skipped.
///
/// # Panics
///
/// Panics if the slices have different lengths or `bins_per_decade == 0`.
pub fn binned_mean_log(x: &[f64], y: &[f64], bins_per_decade: usize) -> BinnedSpectrum {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(bins_per_decade > 0, "need at least one bin per decade");
    let ratio = 10f64.powf(1.0 / bins_per_decade as f64);
    let lr = ratio.ln();
    // bin index = floor(ln(x) / ln(ratio)), can be negative for x < 1.
    let mut acc: std::collections::BTreeMap<i64, (f64, usize)> = std::collections::BTreeMap::new();
    for (&xv, &yv) in x.iter().zip(y) {
        if xv <= 0.0 || !xv.is_finite() || !yv.is_finite() {
            continue;
        }
        let bin = (xv.ln() / lr).floor() as i64;
        let e = acc.entry(bin).or_insert((0.0, 0));
        e.0 += yv;
        e.1 += 1;
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut counts = Vec::new();
    for (bin, (sum, c)) in acc {
        let center = (lr * (bin as f64 + 0.5)).exp();
        xs.push(center);
        ys.push(sum / c as f64);
        counts.push(c);
    }
    BinnedSpectrum {
        x: xs,
        y: ys,
        count: counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_binning_groups_exactly() {
        let x = [2u64, 3, 2, 5, 3, 3];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 8.0];
        let s = binned_mean_by_int(&x, &y);
        assert_eq!(s.x, vec![2.0, 3.0, 5.0]);
        assert_eq!(s.y, vec![2.0, 5.0, 4.0]);
        assert_eq!(s.count, vec![2, 3, 1]);
    }

    #[test]
    fn int_binning_empty() {
        let s = binned_mean_by_int(&[], &[]);
        assert!(s.x.is_empty());
    }

    #[test]
    fn log_binning_pools_geometrically() {
        // One bin per decade: 1..10 pools, 10..100 pools.
        let x = [2.0, 3.0, 20.0, 30.0];
        let y = [1.0, 3.0, 10.0, 30.0];
        let s = binned_mean_log(&x, &y, 1);
        assert_eq!(s.x.len(), 2);
        assert_eq!(s.y, vec![2.0, 20.0]);
        assert_eq!(s.count, vec![2, 2]);
        // Geometric centers: 10^0.5 and 10^1.5.
        assert!((s.x[0] - 10f64.powf(0.5)).abs() < 1e-9);
        assert!((s.x[1] - 10f64.powf(1.5)).abs() < 1e-9);
    }

    #[test]
    fn log_binning_skips_nonpositive_and_nonfinite() {
        let x = [0.0, -1.0, f64::NAN, 5.0];
        let y = [9.0, 9.0, 9.0, 2.0];
        let s = binned_mean_log(&x, &y, 2);
        assert_eq!(s.count, vec![1]);
        assert_eq!(s.y, vec![2.0]);
    }

    #[test]
    fn points_iterator() {
        let s = binned_mean_by_int(&[1, 1], &[2.0, 4.0]);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(1.0, 3.0, 2)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = binned_mean_by_int(&[1], &[]);
    }
}
