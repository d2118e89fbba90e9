//! Parameter-affine expressions and intervals.
//!
//! The paper restricts function domain bounds and image extents to *affine
//! expressions involving constants and parameters* (§2). [`PAff`] is exactly
//! that: a rational-coefficient affine form over the pipeline parameters,
//! with a common positive denominator so pyramid extents like `R/4` are
//! expressible. [`Interval`] is an inclusive `[lo, hi]` range of a domain
//! variable (the paper's `Interval(lo, hi, 1)`; a unit step is assumed, which
//! covers every benchmark in the paper).

use crate::ParamId;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An affine expression over pipeline parameters: `(c + Σ aᵢ·pᵢ) / den`.
///
/// `den` is always positive and the representation is kept normalized
/// (gcd-reduced, terms sorted by parameter, zero terms removed), so
/// structural equality is semantic equality.
///
/// Arithmetic is exact rational arithmetic. Evaluation with concrete
/// parameter values performs floor division, matching C integer semantics;
/// [`PAff::eval_exact`] additionally reports whether the division was exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PAff {
    num_c: i64,
    terms: Vec<(ParamId, i64)>,
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

impl PAff {
    /// A constant expression.
    pub fn cst(c: i64) -> Self {
        PAff {
            num_c: c,
            terms: Vec::new(),
            den: 1,
        }
    }

    /// A single parameter.
    pub fn param(p: ParamId) -> Self {
        PAff {
            num_c: 0,
            terms: vec![(p, 1)],
            den: 1,
        }
    }

    fn normalize(mut self) -> Self {
        self.terms.sort_by_key(|&(p, _)| p);
        let mut out: Vec<(ParamId, i64)> = Vec::with_capacity(self.terms.len());
        for (p, a) in self.terms.drain(..) {
            match out.last_mut() {
                Some((q, b)) if *q == p => *b += a,
                _ => out.push((p, a)),
            }
        }
        out.retain(|&(_, a)| a != 0);
        self.terms = out;
        debug_assert!(self.den != 0);
        if self.den < 0 {
            self.den = -self.den;
            self.num_c = -self.num_c;
            for t in &mut self.terms {
                t.1 = -t.1;
            }
        }
        let mut g = self.den;
        g = gcd(g, self.num_c);
        for &(_, a) in &self.terms {
            g = gcd(g, a);
        }
        if g > 1 {
            self.den /= g;
            self.num_c /= g;
            for t in &mut self.terms {
                t.1 /= g;
            }
        }
        self
    }

    /// Whether the expression is a plain constant, and its value if so
    /// (after floor division by the denominator).
    pub fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.num_c.div_euclid(self.den))
        } else {
            None
        }
    }

    /// The denominator of the normalized form (always ≥ 1).
    pub fn denominator(&self) -> i64 {
        self.den
    }

    /// The parameters this expression mentions.
    pub fn params(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.terms.iter().map(|&(p, _)| p)
    }

    /// The `(parameter, coefficient)` terms of the numerator.
    pub fn terms(&self) -> impl Iterator<Item = (ParamId, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// The constant term of the numerator.
    pub fn num_const(&self) -> i64 {
        self.num_c
    }

    /// Evaluates with the given parameter bindings using floor division.
    ///
    /// `params[p.index()]` must hold the value of parameter `p`.
    ///
    /// # Panics
    ///
    /// Panics if a mentioned parameter is out of range of `params`, or if
    /// the value does not fit `i64` (see [`PAff::checked_eval`]).
    pub fn eval(&self, params: &[i64]) -> i64 {
        self.checked_eval(params)
            .expect("parameter-affine value overflows i64")
    }

    /// Like [`PAff::eval`], but `None` when the value does not fit `i64`.
    pub fn checked_eval(&self, params: &[i64]) -> Option<i64> {
        let mut n = self.num_c;
        for &(p, a) in &self.terms {
            n = n.checked_add(a.checked_mul(params[p.index()])?)?;
        }
        Some(n.div_euclid(self.den))
    }

    /// Like [`PAff::eval`], but also reports whether the division was exact.
    ///
    /// Pipelines whose bounds divide parameters (pyramids) should be invoked
    /// with parameter values for which all bound divisions are exact; the
    /// compiler uses this to diagnose mismatched sizes.
    pub fn eval_exact(&self, params: &[i64]) -> (i64, bool) {
        let mut n = self.num_c;
        for &(p, a) in &self.terms {
            n += a * params[p.index()];
        }
        (n.div_euclid(self.den), n.rem_euclid(self.den) == 0)
    }
}

impl From<i64> for PAff {
    fn from(c: i64) -> Self {
        PAff::cst(c)
    }
}

impl From<ParamId> for PAff {
    fn from(p: ParamId) -> Self {
        PAff::param(p)
    }
}

impl Add for PAff {
    type Output = PAff;
    fn add(self, rhs: PAff) -> PAff {
        let den = self.den / gcd(self.den, rhs.den) * rhs.den;
        let (ls, rs) = (den / self.den, den / rhs.den);
        let mut terms: Vec<(ParamId, i64)> =
            self.terms.into_iter().map(|(p, a)| (p, a * ls)).collect();
        terms.extend(rhs.terms.into_iter().map(|(p, a)| (p, a * rs)));
        PAff {
            num_c: self.num_c * ls + rhs.num_c * rs,
            terms,
            den,
        }
        .normalize()
    }
}

impl Add<i64> for PAff {
    type Output = PAff;
    fn add(self, rhs: i64) -> PAff {
        self + PAff::cst(rhs)
    }
}

impl Sub for PAff {
    type Output = PAff;
    fn sub(self, rhs: PAff) -> PAff {
        self + (-rhs)
    }
}

impl Sub<i64> for PAff {
    type Output = PAff;
    fn sub(self, rhs: i64) -> PAff {
        self + PAff::cst(-rhs)
    }
}

impl Neg for PAff {
    type Output = PAff;
    fn neg(mut self) -> PAff {
        self.num_c = -self.num_c;
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self
    }
}

impl Mul<i64> for PAff {
    type Output = PAff;
    fn mul(mut self, rhs: i64) -> PAff {
        self.num_c *= rhs;
        for t in &mut self.terms {
            t.1 *= rhs;
        }
        self.normalize()
    }
}

impl Div<i64> for PAff {
    type Output = PAff;
    /// Exact rational division by a non-zero constant.
    ///
    /// # Panics
    ///
    /// Panics if `rhs == 0`.
    fn div(mut self, rhs: i64) -> PAff {
        assert!(rhs != 0, "division of parameter expression by zero");
        self.den *= rhs;
        self.normalize()
    }
}

impl fmt::Display for PAff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if self.num_c != 0 || self.terms.is_empty() {
            write!(f, "{}", self.num_c)?;
            first = false;
        }
        for &(p, a) in &self.terms {
            if a >= 0 && !first {
                write!(f, "+")?;
            }
            if a == 1 {
                write!(f, "{p}")?;
            } else if a == -1 {
                write!(f, "-{p}")?;
            } else {
                write!(f, "{a}*{p}")?;
            }
            first = false;
        }
        if self.den != 1 {
            write!(f, "/{}", self.den)?;
        }
        Ok(())
    }
}

/// An inclusive integer interval `[lo, hi]` with parameter-affine bounds.
///
/// This is the paper's `Interval(lo, hi, 1)` construct — the range of a
/// domain variable of a function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: PAff,
    /// Upper bound (inclusive).
    pub hi: PAff,
}

impl Interval {
    /// Creates an interval `[lo, hi]`.
    pub fn new(lo: impl Into<PAff>, hi: impl Into<PAff>) -> Self {
        Interval {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// A constant interval.
    pub fn cst(lo: i64, hi: i64) -> Self {
        Interval::new(PAff::cst(lo), PAff::cst(hi))
    }

    /// Evaluates the bounds with concrete parameter values.
    pub fn eval(&self, params: &[i64]) -> (i64, i64) {
        (self.lo.eval(params), self.hi.eval(params))
    }

    /// The number of points `hi − lo + 1` (negative when empty), or `None`
    /// when a bound or the count does not fit `i64`.
    pub fn checked_extent(&self, params: &[i64]) -> Option<i64> {
        let (lo, hi) = (self.lo.checked_eval(params)?, self.hi.checked_eval(params)?);
        hi.checked_sub(lo)?.checked_add(1)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ParamId {
        ParamId::from_index(i)
    }

    #[test]
    fn constant_arith() {
        let e = PAff::cst(4) + PAff::cst(3) - 2;
        assert_eq!(e.as_const(), Some(5));
    }

    #[test]
    fn param_arith_and_eval() {
        // (R + 2*C - 3) with R=10, C=20 => 47
        let e = PAff::param(p(0)) + PAff::param(p(1)) * 2 - 3;
        assert_eq!(e.eval(&[10, 20]), 47);
        assert_eq!(e.as_const(), None);
    }

    #[test]
    fn division_is_rational_then_floored() {
        // R/2 at R=7 floors to 3
        let e = PAff::param(p(0)) / 2;
        assert_eq!(e.eval(&[7]), 3);
        let (v, exact) = e.eval_exact(&[7]);
        assert_eq!(v, 3);
        assert!(!exact);
        let (v, exact) = e.eval_exact(&[8]);
        assert_eq!(v, 4);
        assert!(exact);
    }

    #[test]
    fn nested_division_normalizes() {
        // (R/2)/2 == R/4 as a rational form
        let e = PAff::param(p(0)) / 2 / 2;
        assert_eq!(e, PAff::param(p(0)) / 4);
        assert_eq!(e.denominator(), 4);
    }

    #[test]
    fn cancellation_removes_terms() {
        let e = PAff::param(p(0)) - PAff::param(p(0));
        assert_eq!(e.as_const(), Some(0));
        assert_eq!(e.params().count(), 0);
    }

    #[test]
    fn mixed_denominators_add() {
        // R/2 + R/3 = 5R/6; at R=12 => 10
        let e = PAff::param(p(0)) / 2 + PAff::param(p(0)) / 3;
        assert_eq!(e.eval(&[12]), 10);
        assert_eq!(e.denominator(), 6);
    }

    #[test]
    fn negative_denominator_is_normalized() {
        let e = PAff::param(p(0)) / -2;
        assert_eq!(e.denominator(), 2);
        assert_eq!(e.eval(&[4]), -2);
    }

    #[test]
    fn display_forms() {
        let e = PAff::param(p(0)) * 2 - 1;
        assert_eq!(e.to_string(), "-1+2*p0");
        assert_eq!(PAff::cst(0).to_string(), "0");
        assert_eq!((PAff::param(p(1)) / 2).to_string(), "p1/2");
    }

    #[test]
    fn interval_eval() {
        let iv = Interval::new(PAff::cst(1), PAff::param(p(0)) - 2);
        assert_eq!(iv.eval(&[100]), (1, 98));
        assert_eq!(iv.to_string(), "[1, -2+p0]");
    }
}
