//! Uniform point clouds in the unit square.

use crate::Point2;
use inet_stats::rng::StdRng;

/// `n` points uniformly distributed in `[0, 1)²`.
pub fn uniform_points(n: usize, rng: &mut StdRng) -> Vec<Point2> {
    (0..n)
        .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_stats::rng::seeded_rng;

    #[test]
    fn uniform_points_are_in_unit_square() {
        let mut rng = seeded_rng(1);
        let pts = uniform_points(500, &mut rng);
        assert_eq!(pts.len(), 500);
        assert!(pts
            .iter()
            .all(|p| (0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y)));
    }

    #[test]
    fn uniform_points_cover_the_square() {
        let mut rng = seeded_rng(2);
        let pts = uniform_points(2000, &mut rng);
        // All four quadrants hit.
        for (qx, qy) in [(false, false), (false, true), (true, false), (true, true)] {
            assert!(
                pts.iter().any(|p| (p.x > 0.5) == qx && (p.y > 0.5) == qy),
                "quadrant ({qx},{qy}) empty"
            );
        }
    }

    #[test]
    fn empty_request_yields_empty_sets() {
        let mut rng = seeded_rng(4);
        assert!(uniform_points(0, &mut rng).is_empty());
    }

    #[test]
    fn determinism_given_seed() {
        let a = uniform_points(50, &mut seeded_rng(9));
        let b = uniform_points(50, &mut seeded_rng(9));
        assert_eq!(a, b);
    }
}
