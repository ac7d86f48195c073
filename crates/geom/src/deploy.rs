//! Node deployment (paper §2(a): "randomly uniformly distributed in a
//! 2-dimensional field").

use robonet_des::rng::Rng;

use crate::point::{Bounds, Point};

/// Samples `n` points independently and uniformly inside `bounds`.
///
/// ```
/// use robonet_des::rng::Xoshiro256;
/// use robonet_geom::{deploy::uniform, Bounds};
///
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// let pts = uniform(&mut rng, &Bounds::square(200.0), 50);
/// assert_eq!(pts.len(), 50);
/// assert!(pts.iter().all(|p| Bounds::square(200.0).contains(*p)));
/// ```
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, bounds: &Bounds, n: usize) -> Vec<Point> {
    (0..n).map(|_| uniform_point(rng, bounds)).collect()
}

/// Samples one point uniformly inside `bounds` (x drawn before y — the
/// draw order [`uniform`] has always used, which golden artifacts pin).
pub fn uniform_point<R: Rng + ?Sized>(rng: &mut R, bounds: &Bounds) -> Point {
    Point::new(
        rng.gen_range(bounds.min().x..=bounds.max().x),
        rng.gen_range(bounds.min().y..=bounds.max().y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_des::rng::Xoshiro256;

    fn rng(seed: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(seed)
    }

    #[test]
    fn uniform_points_inside_bounds() {
        let b = Bounds::new(Point::new(10.0, 20.0), Point::new(30.0, 25.0));
        let mut r = rng(5);
        let pts = uniform(&mut r, &b, 500);
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|p| b.contains(*p)));
    }

    #[test]
    fn uniform_is_reproducible() {
        let b = Bounds::square(100.0);
        let a = uniform(&mut rng(9), &b, 20);
        let c = uniform(&mut rng(9), &b, 20);
        assert_eq!(a, c);
        let d = uniform(&mut rng(10), &b, 20);
        assert_ne!(a, d);
    }

    #[test]
    fn uniform_covers_quadrants() {
        let b = Bounds::square(100.0);
        let pts = uniform(&mut rng(1), &b, 4000);
        let c = b.center();
        let q1 = pts.iter().filter(|p| p.x < c.x && p.y < c.y).count();
        let q2 = pts.iter().filter(|p| p.x >= c.x && p.y < c.y).count();
        let q3 = pts.iter().filter(|p| p.x < c.x && p.y >= c.y).count();
        let q4 = pts.iter().filter(|p| p.x >= c.x && p.y >= c.y).count();
        for q in [q1, q2, q3, q4] {
            assert!(
                (q as f64 - 1000.0).abs() < 120.0,
                "quadrant count {q} far from 1000"
            );
        }
    }
}
