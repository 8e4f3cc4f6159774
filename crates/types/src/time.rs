//! Video time: seconds since the start of a recorded video, and closed
//! intervals over it.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in video time, in seconds since the start of the recording.
///
/// The paper works in whole seconds ("a one-hour video `V = [0, 3600]`") but
/// simulated event times are continuous, so `Sec` wraps an `f64`. Ordering
/// helpers use [`f64::total_cmp`] so collections of times can be sorted
/// without panicking on NaN (which no constructor produces, but arithmetic
/// on user input could).
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Sec(pub f64);

impl Sec {
    /// Zero seconds — the start of any video.
    pub const ZERO: Sec = Sec(0.0);

    /// Construct from a floating-point number of seconds.
    #[inline]
    pub fn new(s: f64) -> Self {
        Sec(s)
    }

    /// Construct from whole hours.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        Sec(h * 3600.0)
    }

    /// Absolute distance between two time points.
    #[inline]
    pub fn distance(self, other: Sec) -> Sec {
        Sec((self.0 - other.0).abs())
    }

    /// Total-order comparison (safe for sorting).
    #[inline]
    pub fn total_cmp(&self, other: &Sec) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min(self, other: Sec) -> Sec {
        if self.total_cmp(&other).is_le() {
            self
        } else {
            other
        }
    }

    /// The later of two time points.
    #[inline]
    pub fn max(self, other: Sec) -> Sec {
        if self.total_cmp(&other).is_ge() {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Sec, hi: Sec) -> Sec {
        self.max(lo).min(hi)
    }

    /// True if this time is non-negative and finite.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl fmt::Display for Sec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

impl From<f64> for Sec {
    fn from(s: f64) -> Self {
        Sec(s)
    }
}

impl Add for Sec {
    type Output = Sec;
    fn add(self, rhs: Sec) -> Sec {
        Sec(self.0 + rhs.0)
    }
}

impl AddAssign for Sec {
    fn add_assign(&mut self, rhs: Sec) {
        self.0 += rhs.0;
    }
}

impl Sub for Sec {
    type Output = Sec;
    fn sub(self, rhs: Sec) -> Sec {
        Sec(self.0 - rhs.0)
    }
}

impl SubAssign for Sec {
    fn sub_assign(&mut self, rhs: Sec) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Sec {
    type Output = Sec;
    fn mul(self, rhs: f64) -> Sec {
        Sec(self.0 * rhs)
    }
}

impl Div<f64> for Sec {
    type Output = Sec;
    fn div(self, rhs: f64) -> Sec {
        Sec(self.0 / rhs)
    }
}

impl Neg for Sec {
    type Output = Sec;
    fn neg(self) -> Sec {
        Sec(-self.0)
    }
}

/// A closed interval `[start, end]` of video time.
///
/// Invariant maintained by the constructors: `start <= end`. A range with
/// `start == end` is a zero-length instant and is allowed (a degenerate
/// play record, for example).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeRange {
    /// Inclusive start of the interval.
    pub start: Sec,
    /// Inclusive end of the interval.
    pub end: Sec,
}

impl TimeRange {
    /// Construct a range, swapping the endpoints if given out of order.
    #[inline]
    pub fn new(start: Sec, end: Sec) -> Self {
        if start.total_cmp(&end).is_le() {
            TimeRange { start, end }
        } else {
            TimeRange {
                start: end,
                end: start,
            }
        }
    }

    /// Construct from raw second values.
    #[inline]
    pub fn from_secs(start: f64, end: f64) -> Self {
        TimeRange::new(Sec(start), Sec(end))
    }

    /// Length of the interval.
    #[inline]
    pub fn duration(&self) -> Sec {
        self.end - self.start
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn midpoint(&self) -> Sec {
        Sec((self.start.0 + self.end.0) * 0.5)
    }

    /// True if `t` lies inside the closed interval.
    #[inline]
    pub fn contains(&self, t: Sec) -> bool {
        self.start.0 <= t.0 && t.0 <= self.end.0
    }

    /// True if the two closed intervals share at least one point.
    #[inline]
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start.0 <= other.end.0 && other.start.0 <= self.end.0
    }

    /// Length of the overlap between two intervals (zero when disjoint).
    #[inline]
    pub fn overlap_len(&self, other: &TimeRange) -> Sec {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        if lo.0 <= hi.0 {
            hi - lo
        } else {
            Sec::ZERO
        }
    }

    /// The intersection interval, if any.
    pub fn intersect(&self, other: &TimeRange) -> Option<TimeRange> {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        (lo.0 <= hi.0).then_some(TimeRange { start: lo, end: hi })
    }

    /// Translate both endpoints by `delta` (negative moves earlier).
    #[inline]
    pub fn shift(&self, delta: Sec) -> TimeRange {
        TimeRange {
            start: self.start + delta,
            end: self.end + delta,
        }
    }

    /// Distance from a point to the interval (zero if contained).
    pub fn distance_to(&self, t: Sec) -> Sec {
        if t.0 < self.start.0 {
            self.start - t
        } else if t.0 > self.end.0 {
            t - self.end
        } else {
            Sec::ZERO
        }
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.1}, {:.1}]", self.start.0, self.end.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec_arithmetic() {
        let a = Sec(10.0);
        let b = Sec(4.0);
        assert_eq!((a + b).0, 14.0);
        assert_eq!((a - b).0, 6.0);
        assert_eq!((a * 2.0).0, 20.0);
        assert_eq!((a / 2.0).0, 5.0);
        assert_eq!((-b).0, -4.0);
    }

    #[test]
    fn sec_constructors() {
        assert_eq!(Sec::from_hours(1.5).0, 5400.0);
        assert_eq!(Sec::from(7.0).0, 7.0);
    }

    #[test]
    fn sec_distance_is_symmetric() {
        assert_eq!(Sec(3.0).distance(Sec(8.0)).0, 5.0);
        assert_eq!(Sec(8.0).distance(Sec(3.0)).0, 5.0);
    }

    #[test]
    fn sec_min_max_clamp() {
        assert_eq!(Sec(3.0).min(Sec(5.0)).0, 3.0);
        assert_eq!(Sec(3.0).max(Sec(5.0)).0, 5.0);
        assert_eq!(Sec(9.0).clamp(Sec(0.0), Sec(5.0)).0, 5.0);
        assert_eq!(Sec(-1.0).clamp(Sec(0.0), Sec(5.0)).0, 0.0);
    }

    #[test]
    fn sec_validity() {
        assert!(Sec(0.0).is_valid());
        assert!(!Sec(-1.0).is_valid());
        assert!(!Sec(f64::NAN).is_valid());
        assert!(!Sec(f64::INFINITY).is_valid());
    }

    #[test]
    fn range_normalizes_order() {
        let r = TimeRange::from_secs(10.0, 4.0);
        assert_eq!(r.start.0, 4.0);
        assert_eq!(r.end.0, 10.0);
        assert_eq!(r.duration().0, 6.0);
    }

    #[test]
    fn range_contains_and_overlap() {
        let r = TimeRange::from_secs(100.0, 120.0);
        assert!(r.contains(Sec(100.0)));
        assert!(r.contains(Sec(120.0)));
        assert!(!r.contains(Sec(120.1)));

        let s = TimeRange::from_secs(119.0, 130.0);
        assert!(r.overlaps(&s));
        assert_eq!(r.overlap_len(&s).0, 1.0);

        let t = TimeRange::from_secs(121.0, 130.0);
        assert!(!r.overlaps(&t));
        assert_eq!(r.overlap_len(&t).0, 0.0);
    }

    #[test]
    fn range_touching_endpoints_overlap() {
        let r = TimeRange::from_secs(0.0, 10.0);
        let s = TimeRange::from_secs(10.0, 20.0);
        assert!(r.overlaps(&s));
        assert_eq!(r.overlap_len(&s).0, 0.0);
    }

    #[test]
    fn range_intersect() {
        let r = TimeRange::from_secs(0.0, 10.0);
        let s = TimeRange::from_secs(5.0, 15.0);
        let i = r.intersect(&s).unwrap();
        assert_eq!((i.start.0, i.end.0), (5.0, 10.0));
        assert!(r.intersect(&TimeRange::from_secs(11.0, 12.0)).is_none());
    }

    #[test]
    fn range_shift_and_clamp() {
        let r = TimeRange::from_secs(10.0, 20.0).shift(Sec(-15.0));
        assert_eq!((r.start.0, r.end.0), (-5.0, 5.0));
    }

    #[test]
    fn range_distance_to_point() {
        let r = TimeRange::from_secs(10.0, 20.0);
        assert_eq!(r.distance_to(Sec(5.0)).0, 5.0);
        assert_eq!(r.distance_to(Sec(15.0)).0, 0.0);
        assert_eq!(r.distance_to(Sec(26.0)).0, 6.0);
    }

    #[test]
    fn serde_round_trip() {
        let r = TimeRange::from_secs(1.5, 2.5);
        let js = serde_json::to_string(&r).unwrap();
        let back: TimeRange = serde_json::from_str(&js).unwrap();
        assert_eq!(r, back);
    }
}
