//! Orientation predicates and segment operations.

use crate::point::{Point, Vec2};

/// Tolerance for degenerate geometric predicates, in metres.
///
/// Node coordinates are O(10³) m and come from random deployment, so
/// exact degeneracies are measure-zero; a small absolute epsilon is
/// sufficient and keeps predicates fast.
pub const EPS: f64 = 1e-9;

/// Which side of a directed line a point lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The point is counter-clockwise (left) of the directed line.
    CounterClockwise,
    /// The point is clockwise (right) of the directed line.
    Clockwise,
    /// The three points are (numerically) collinear.
    Collinear,
}

/// Classifies `c` relative to the directed line `a → b`.
pub fn orientation(a: Point, b: Point, c: Point) -> Orientation {
    let v = (b - a).cross(c - a);
    if v > EPS {
        Orientation::CounterClockwise
    } else if v < -EPS {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from its endpoints.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length in metres.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Returns `true` if this segment properly or improperly intersects
    /// `other` (shared endpoints count as intersecting).
    pub fn intersects(&self, other: &Segment) -> bool {
        let d1 = orientation(other.a, other.b, self.a);
        let d2 = orientation(other.a, other.b, self.b);
        let d3 = orientation(self.a, self.b, other.a);
        let d4 = orientation(self.a, self.b, other.b);

        if d1 != d2
            && d3 != d4
            && d1 != Orientation::Collinear
            && d2 != Orientation::Collinear
            && d3 != Orientation::Collinear
            && d4 != Orientation::Collinear
        {
            return true;
        }
        // Collinear / endpoint cases.
        (d1 == Orientation::Collinear && on_segment(other, self.a))
            || (d2 == Orientation::Collinear && on_segment(other, self.b))
            || (d3 == Orientation::Collinear && on_segment(self, other.a))
            || (d4 == Orientation::Collinear && on_segment(self, other.b))
    }

    /// Returns the intersection point of the two *lines* through the
    /// segments, if they are not parallel, together with the parameter `t`
    /// along `self` (`t ∈ [0, 1]` means the crossing lies on `self`).
    pub fn line_intersection(&self, other: &Segment) -> Option<(Point, f64)> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        if denom.abs() <= EPS {
            return None;
        }
        let t = (other.a - self.a).cross(s) / denom;
        Some((self.a + r * t, t))
    }

    /// The point of the segment closest to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let ab = self.b - self.a;
        let len_sq = ab.length_sq();
        if len_sq <= EPS * EPS {
            return self.a;
        }
        let t = ((p - self.a).dot(ab) / len_sq).clamp(0.0, 1.0);
        self.a + ab * t
    }

    /// The segment's midpoint.
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Unit direction from `a` to `b`, or `None` for a degenerate segment.
    pub fn direction(&self) -> Option<Vec2> {
        (self.b - self.a).normalized()
    }
}

fn on_segment(seg: &Segment, p: Point) -> bool {
    p.x >= seg.a.x.min(seg.b.x) - EPS
        && p.x <= seg.a.x.max(seg.b.x) + EPS
        && p.y >= seg.a.y.min(seg.b.y) - EPS
        && p.y <= seg.a.y.max(seg.b.y) + EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn orientation_cases() {
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(0.5, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 2.0));
        let s2 = Segment::new(p(0.0, 2.0), p(2.0, 0.0));
        assert!(s1.intersects(&s2));
        assert!(s2.intersects(&s1));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        let s2 = Segment::new(p(0.0, 1.0), p(1.0, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn touching_at_endpoint_counts() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 1.0));
        let s2 = Segment::new(p(1.0, 1.0), p(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_overlap_counts() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 0.0));
        let s2 = Segment::new(p(1.0, 0.0), p(3.0, 0.0));
        assert!(s1.intersects(&s2));
        let s3 = Segment::new(p(3.0, 0.0), p(4.0, 0.0));
        assert!(!s1.intersects(&s3), "collinear but disjoint");
    }

    #[test]
    fn line_intersection_point_and_parameter() {
        let s1 = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        let s2 = Segment::new(p(1.0, -1.0), p(1.0, 1.0));
        let (pt, t) = s1.line_intersection(&s2).unwrap();
        assert!((pt.x - 1.0).abs() < 1e-12 && pt.y.abs() < 1e-12);
        assert!((t - 0.25).abs() < 1e-12);
        let parallel = Segment::new(p(0.0, 1.0), p(4.0, 1.0));
        assert!(s1.line_intersection(&parallel).is_none());
    }

    #[test]
    fn point_distance_regions() {
        let s = Segment::new(p(0.0, 0.0), p(10.0, 0.0));
        let distance = |q: Point| q.distance(s.closest_point(q));
        assert_eq!(distance(p(5.0, 3.0)), 3.0, "interior projection");
        assert_eq!(distance(p(-3.0, 4.0)), 5.0, "before start");
        assert_eq!(distance(p(13.0, 4.0)), 5.0, "past end");
        assert_eq!(s.closest_point(p(5.0, 3.0)), p(5.0, 0.0));
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(p(1.0, 1.0), p(1.0, 1.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.closest_point(p(4.0, 5.0)), p(1.0, 1.0));
        assert!(s.direction().is_none());
    }
}
