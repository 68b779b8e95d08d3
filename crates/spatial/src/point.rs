//! 2-D points and metrics.

/// A point in the plane. Model space is conventionally the unit square
/// `[0, 1)²`, but nothing in this type assumes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in comparisons).
    pub fn dist_sq(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.dist(&a), 0.0);
    }
}
