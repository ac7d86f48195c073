//! Points, vectors and axis-aligned bounds on the simulation plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A location on the 2-dimensional sensor field, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East-west coordinate in metres.
    pub x: f64,
    /// North-south coordinate in metres.
    pub y: f64,
}

/// A displacement between two [`Point`]s, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East-west component in metres.
    pub x: f64,
    /// North-south component in metres.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ZERO: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`; cheaper than
    /// [`Point::distance`] for comparisons.
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    ///
    /// Used to place a moving robot along its current leg of travel.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` if both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vec2 {
    /// The zero displacement.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length in metres.
    pub fn length(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Squared length; cheaper than [`Vec2::length`] for comparisons.
    pub fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z-component of the 3D cross product); positive
    /// when `other` lies counter-clockwise of `self`.
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The vector scaled to unit length, or `None` for (near-)zero
    /// vectors.
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len <= f64::EPSILON {
            None
        } else {
            Some(Vec2::new(self.x / len, self.y / len))
        }
    }

    /// The angle of the vector in radians, in `(-π, π]`, measured
    /// counter-clockwise from the positive x-axis.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

/// An axis-aligned rectangle: the deployment field or a subarea of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    min: Point,
    max: Point,
}

impl Bounds {
    /// Creates a rectangle from opposite corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not component-wise ≤ `max`, or if either corner
    /// is non-finite.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(
            min.x <= max.x && min.y <= max.y,
            "bounds min {min} must be <= max {max}"
        );
        Bounds { min, max }
    }

    /// A square field of side `side` metres with its corner at the origin,
    /// the shape the paper deploys into (e.g. 800 × 800 m² for 16 robots).
    pub fn square(side: f64) -> Self {
        Bounds::new(Point::ZERO, Point::new(side, side))
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// The centre of the rectangle — where the centralized algorithm
    /// stations its manager (paper §3.1).
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// The four corners in counter-clockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.midpoint(b), Point::new(1.5, 2.0));
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn vector_algebra() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.length(), 5.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(Vec2::new(1.0, 0.0).cross(Vec2::new(0.0, 1.0)), 1.0);
        assert_eq!(v * 2.0, Vec2::new(6.0, 8.0));
        assert_eq!(v / 2.0, Vec2::new(1.5, 2.0));
        assert_eq!(-v, Vec2::new(-3.0, -4.0));
        let u = v.normalized().unwrap();
        assert!((u.length() - 1.0).abs() < 1e-12);
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn angle_quadrants() {
        assert!((Vec2::new(1.0, 0.0).angle() - 0.0).abs() < 1e-12);
        assert!((Vec2::new(0.0, 1.0).angle() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Vec2::new(-1.0, 0.0).angle() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn point_vector_interplay() {
        let p = Point::new(1.0, 2.0);
        let q = Point::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(p + v, q);
        assert_eq!(q - v, p);
    }

    #[test]
    fn bounds_queries() {
        let b = Bounds::square(200.0);
        assert_eq!(b.width(), 200.0);
        assert_eq!(b.height(), 200.0);
        assert_eq!(b.area(), 40_000.0);
        assert_eq!(b.center(), Point::new(100.0, 100.0));
        assert!(b.contains(Point::new(0.0, 0.0)), "boundary is inside");
        assert!(b.contains(Point::new(200.0, 200.0)));
        assert!(!b.contains(Point::new(-0.1, 50.0)));
        assert_eq!(b.clamp(Point::new(300.0, -5.0)), Point::new(200.0, 0.0));
    }

    #[test]
    fn corners_ccw() {
        let b = Bounds::new(Point::new(1.0, 2.0), Point::new(3.0, 5.0));
        let c = b.corners();
        // Shoelace area of the corner loop must be positive (CCW).
        let mut area = 0.0;
        for i in 0..4 {
            let p = c[i];
            let q = c[(i + 1) % 4];
            area += p.x * q.y - q.x * p.y;
        }
        assert!(area > 0.0);
        assert_eq!(area * 0.5, b.area());
    }

    #[test]
    #[should_panic(expected = "must be <= max")]
    fn inverted_bounds_rejected() {
        let _ = Bounds::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }
}
