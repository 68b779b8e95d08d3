//! Property-based tests for spatial substrates.

use inet_spatial::{boxcount, FractalSet, GridIndex, Point2};
use inet_stats::rng::{check, StdRng};

fn point(rng: &mut StdRng) -> Point2 {
    Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
}

/// Between `min_len` and `max_len - 1` uniform points.
fn points(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<Point2> {
    (0..rng.gen_range(min_len..max_len))
        .map(|_| point(rng))
        .collect()
}

/// Distance is a metric: symmetric, zero on the diagonal, triangle
/// inequality.
#[test]
fn euclidean_is_a_metric() {
    check(256, |rng| {
        let (a, b, c) = (point(rng), point(rng), point(rng));
        assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-12);
        assert!(a.dist(&a) < 1e-12);
        assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-12);
    });
}

/// Grid-index radius queries agree with brute force for arbitrary point
/// sets, probes, radii, and cell sizes.
#[test]
fn grid_index_matches_brute_force() {
    check(256, |rng| {
        let pts = points(rng, 1, 120);
        let probe = point(rng);
        let radius = rng.gen_range(0.0..0.7);
        let cell = rng.gen_range(0.01..0.9);
        let idx = GridIndex::build(&pts, cell);
        let got = idx.within(&probe, radius);
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, q)| q.dist(&probe) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
    });
}

/// Occupied-box counts are monotone in resolution and bounded by the sample
/// size.
#[test]
fn box_counts_are_monotone() {
    check(256, |rng| {
        let pts = points(rng, 16, 200);
        let mut prev = 0usize;
        for k in 1..=8 {
            let n = boxcount::occupied_boxes(&pts, k);
            assert!(n >= prev, "box count decreased at k={k}");
            assert!(n <= pts.len());
            prev = n;
        }
    });
}

/// Fractal generation always yields points inside the unit square, for any
/// dimension and depth in range.
#[test]
fn fractal_points_in_bounds() {
    check(256, |rng| {
        let f = FractalSet::new(rng.gen_range(0.8..2.0), rng.gen_range(2..9u64) as u32);
        let pts = f.generate(200, rng);
        assert_eq!(pts.len(), 200);
        for p in &pts {
            assert!((0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y));
        }
    });
}
