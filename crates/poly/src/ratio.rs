//! Exact rational numbers for schedule scaling factors.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` with `den > 0`, kept in lowest terms.
///
/// Used for the scaling factors of §3.3: up/down-sampling chains multiply
/// schedule scales by 2 or 1/2 per pyramid level, so factors stay tiny and
/// `i64` never overflows in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num/den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Ratio {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den).max(1);
        let s = if den < 0 { -1 } else { 1 };
        Ratio {
            num: s * num / g,
            den: s * den / g,
        }
    }

    /// An integer as a rational.
    pub fn int(v: i64) -> Ratio {
        Ratio { num: v, den: 1 }
    }

    /// Numerator (after normalization).
    pub fn num(self) -> i64 {
        self.num
    }

    /// Denominator (after normalization, always positive).
    pub fn den(self) -> i64 {
        self.den
    }

    /// Whether the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Largest integer ≤ the value.
    pub fn floor(self) -> i64 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer ≥ the value.
    pub fn ceil(self) -> i64 {
        -(-self.num).div_euclid(self.den)
    }

    /// Absolute value.
    pub fn abs(self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Converts to `f64` (for reporting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, r: Ratio) -> Ratio {
        Ratio::new(self.num * r.den + r.num * self.den, self.den * r.den)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, r: Ratio) -> Ratio {
        Ratio::new(self.num * r.den - r.num * self.den, self.den * r.den)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, r: Ratio) -> Ratio {
        Ratio::new(self.num * r.num, self.den * r.den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, r: Ratio) -> Ratio {
        assert!(r.num != 0, "rational division by zero");
        Ratio::new(self.num * r.den, self.den * r.num)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::int(v)
    }
}

/// Least common multiple of two positive integers.
pub(crate) fn lcm(a: i64, b: i64) -> i64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    fn arithmetic() {
        let h = Ratio::new(1, 2);
        assert_eq!(h + h, Ratio::ONE);
        assert_eq!(h * Ratio::int(4), Ratio::int(2));
        assert_eq!(Ratio::ONE / h, Ratio::int(2));
        assert_eq!(h - Ratio::ONE, Ratio::new(-1, 2));
        assert_eq!(-h, Ratio::new(-1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(-7, 2).floor(), -4);
        assert_eq!(Ratio::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio::int(5).floor(), 5);
        assert_eq!(Ratio::int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert_eq!(Ratio::new(2, 6).cmp(&Ratio::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn lcm_works() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(1, 7), 7);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_den_panics() {
        let _ = Ratio::new(1, 0);
    }
}
