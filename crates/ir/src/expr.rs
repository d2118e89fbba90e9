//! Scalar expressions defining function values.

use crate::{CmpOp, Cond, ParamId, ScalarType, Source, VarId};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Unary scalar operations. [`UnOp::eval`] gives each its `f32` meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Round toward −∞.
    Floor,
    /// Round toward +∞.
    Ceil,
}

/// Binary scalar operations. [`BinOp::eval`] gives each its `f32` meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Euclidean remainder (result has the sign of the divisor's absolute).
    Mod,
    /// Power (`a` raised to `b`).
    Pow,
}

/// A scalar expression over domain variables, parameters, constants and
/// accesses to other functions or images.
///
/// Expressions are built with ordinary Rust operators (`+`, `-`, `*`, `/`)
/// and the combinators on this type ([`Expr::min`], [`Expr::clamp`],
/// [`Expr::select`], …); domain variables, parameters, and numeric literals
/// convert into `Expr` via `From`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point constant.
    Const(f64),
    /// A domain variable of the function being defined.
    Var(VarId),
    /// A pipeline parameter.
    Param(ParamId),
    /// A value access `src(args…)` into a function or image.
    Call(Source, Vec<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `if cond { then } else { otherwise }`, evaluated per point.
    Select(Box<Cond>, Box<Expr>, Box<Expr>),
    /// Type conversion (rounds for integral targets, saturates per type).
    Cast(ScalarType, Box<Expr>),
}

impl Expr {
    /// Floating-point constant expression.
    pub fn f(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Integer constant expression.
    pub fn i(v: i64) -> Expr {
        Expr::Const(v as f64)
    }

    /// A value access `src(args…)`.
    ///
    /// Each argument is an index. One that reads no data is integer
    /// arithmetic (`/` floors). One that reads data — a lookup table
    /// `lut(I(x))`, grid slicing — is evaluated in `f32` (`/` floors, casts
    /// round) and converted once at the access by [`crate::index_convert`]
    /// (round half away from zero, NaN → 0, saturating); the result is
    /// clamped into the source's domain.
    pub fn at<S, I, E>(src: S, args: I) -> Expr
    where
        S: Into<Source>,
        I: IntoIterator<Item = E>,
        E: Into<Expr>,
    {
        Expr::Call(src.into(), args.into_iter().map(Into::into).collect())
    }

    /// Point-wise minimum.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary(BinOp::Min, Box::new(self), Box::new(other.into()))
    }

    /// Point-wise maximum.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary(BinOp::Max, Box::new(self), Box::new(other.into()))
    }

    /// Clamps into `[lo, hi]`.
    pub fn clamp(self, lo: impl Into<Expr>, hi: impl Into<Expr>) -> Expr {
        self.max(lo.into()).min(hi.into())
    }

    /// Euclidean remainder.
    ///
    /// Deliberately a named method, not `std::ops::Rem`: Rust's `%` is a
    /// truncated remainder and implementing the trait would suggest those
    /// semantics.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary(BinOp::Mod, Box::new(self), Box::new(other.into()))
    }

    /// Raises to a power.
    pub fn pow(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary(BinOp::Pow, Box::new(self), Box::new(other.into()))
    }

    /// Absolute value.
    pub fn abs(self) -> Expr {
        Expr::Unary(UnOp::Abs, Box::new(self))
    }

    /// Square root.
    pub fn sqrt(self) -> Expr {
        Expr::Unary(UnOp::Sqrt, Box::new(self))
    }

    /// Natural exponential.
    pub fn exp(self) -> Expr {
        Expr::Unary(UnOp::Exp, Box::new(self))
    }

    /// Natural logarithm.
    pub fn log(self) -> Expr {
        Expr::Unary(UnOp::Log, Box::new(self))
    }

    /// Floor.
    pub fn floor(self) -> Expr {
        Expr::Unary(UnOp::Floor, Box::new(self))
    }

    /// Ceiling.
    pub fn ceil(self) -> Expr {
        Expr::Unary(UnOp::Ceil, Box::new(self))
    }

    /// Sine.
    pub fn sin(self) -> Expr {
        Expr::Unary(UnOp::Sin, Box::new(self))
    }

    /// Cosine.
    pub fn cos(self) -> Expr {
        Expr::Unary(UnOp::Cos, Box::new(self))
    }

    /// Conversion to a scalar type.
    pub fn cast(self, ty: ScalarType) -> Expr {
        Expr::Cast(ty, Box::new(self))
    }

    /// Conditional selection, the DSL's `Select(cond, a, b)`.
    pub fn select(cond: Cond, then: impl Into<Expr>, otherwise: impl Into<Expr>) -> Expr {
        Expr::Select(
            Box::new(cond),
            Box::new(then.into()),
            Box::new(otherwise.into()),
        )
    }

    /// `self < other`.
    pub fn lt(self, other: impl Into<Expr>) -> Cond {
        Cond::Cmp(CmpOp::Lt, self, other.into())
    }

    /// `self <= other`.
    pub fn le(self, other: impl Into<Expr>) -> Cond {
        Cond::Cmp(CmpOp::Le, self, other.into())
    }

    /// `self > other`.
    pub fn gt(self, other: impl Into<Expr>) -> Cond {
        Cond::Cmp(CmpOp::Gt, self, other.into())
    }

    /// `self >= other`.
    pub fn ge(self, other: impl Into<Expr>) -> Cond {
        Cond::Cmp(CmpOp::Ge, self, other.into())
    }

    /// `self == other` (exact floating comparison; use with integer-valued
    /// expressions).
    pub fn eq_(self, other: impl Into<Expr>) -> Cond {
        Cond::Cmp(CmpOp::Eq, self, other.into())
    }

    /// `self != other`.
    pub fn ne_(self, other: impl Into<Expr>) -> Cond {
        Cond::Cmp(CmpOp::Ne, self, other.into())
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Const(v)
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Expr {
        Expr::Const(v as f64)
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Const(v as f64)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Expr {
        Expr::Const(v as f64)
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Expr {
        Expr::Var(v)
    }
}

impl From<ParamId> for Expr {
    fn from(p: ParamId) -> Expr {
        Expr::Param(p)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $m:ident, $op:expr) => {
        impl<T: Into<Expr>> $trait<T> for Expr {
            type Output = Expr;
            fn $m(self, rhs: T) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(rhs.into()))
            }
        }
        impl $trait<Expr> for f64 {
            type Output = Expr;
            fn $m(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(Expr::Const(self)), Box::new(rhs))
            }
        }
        impl $trait<Expr> for i64 {
            type Output = Expr;
            fn $m(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(Expr::Const(self as f64)), Box::new(rhs))
            }
        }
        impl<T: Into<Expr>> $trait<T> for VarId {
            type Output = Expr;
            fn $m(self, rhs: T) -> Expr {
                Expr::Binary($op, Box::new(Expr::Var(self)), Box::new(rhs.into()))
            }
        }
        impl<T: Into<Expr>> $trait<T> for ParamId {
            type Output = Expr;
            fn $m(self, rhs: T) -> Expr {
                Expr::Binary($op, Box::new(Expr::Param(self)), Box::new(rhs.into()))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncId, ImageId};

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn operator_building() {
        let (x, y) = (v(0), v(1));
        let e = x + 1 * (y - 2);
        match e {
            Expr::Binary(BinOp::Add, ..) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn call_builder_mixes_arg_types() {
        let img = ImageId::from_index(0);
        let e = Expr::at(img, vec![v(0) + 1, Expr::from(v(1))]);
        match &e {
            Expr::Call(Source::Image(_), args) => assert_eq!(args.len(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn func_access() {
        let f = FuncId::from_index(3);
        let e = Expr::at(f, vec![Expr::from(v(0))]);
        assert!(matches!(e, Expr::Call(Source::Func(_), _)));
    }

    #[test]
    fn combinators_nest() {
        let x = Expr::from(v(0));
        let e = x.clone().clamp(0, 255).sqrt().min(x.abs());
        assert!(matches!(e, Expr::Binary(BinOp::Min, ..)));
    }

    #[test]
    fn comparisons_make_conditions() {
        let c = Expr::from(v(0)).ge(1) & Expr::from(v(0)).le(10);
        assert!(matches!(c, Cond::And(..)));
    }

    #[test]
    fn scalar_lhs_ops() {
        let e = 1.0 - Expr::from(v(0));
        assert!(matches!(e, Expr::Binary(BinOp::Sub, ..)));
        let e = 2i64 * Expr::from(v(0));
        assert!(matches!(e, Expr::Binary(BinOp::Mul, ..)));
    }
}
