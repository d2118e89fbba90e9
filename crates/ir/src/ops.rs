//! The op table: the one `f32` meaning of every scalar operator.
//!
//! The engine (`polymage-vm`'s chunk loops, uniform preamble, constant
//! folding and SIMD scalar tails) and the reference interpreter
//! (`polymage-core::interp`) both evaluate operators through these
//! methods, so they cannot drift apart. The emitted C spells the same
//! meanings independently in its prelude and is checked against the engine
//! bit for bit.
//!
//! Every method is `#[inline]`: the engine calls them once per lane, from
//! another crate, and the release profile has no LTO. Called with a
//! constant operator, each folds to the single expression of its arm.

use crate::{BinOp, CmpOp, Reduction, ScalarType, UnOp};

impl BinOp {
    /// `a ⊕ b` in `f32`. `Min`/`Max` are `f32::min`/`f32::max` (a NaN
    /// operand yields the other one); `Mod` is the Euclidean remainder
    /// `a − b·⌊a/b⌋`.
    #[inline]
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Mod => a - b * (a / b).floor(),
            BinOp::Pow => a.powf(b),
        }
    }
}

impl UnOp {
    /// `⊖a` in `f32`.
    #[inline]
    pub fn eval(self, a: f32) -> f32 {
        match self {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::Exp => a.exp(),
            UnOp::Log => a.ln(),
            UnOp::Sin => a.sin(),
            UnOp::Cos => a.cos(),
            UnOp::Floor => a.floor(),
            UnOp::Ceil => a.ceil(),
        }
    }
}

impl CmpOp {
    /// `a ⊲ b` in `f32` (every comparison with a NaN is false, except `Ne`).
    #[inline]
    pub fn eval(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// [`CmpOp::eval`] as a mask value: `1.0` when true, `0.0` when false.
    #[inline]
    pub fn mask(self, a: f32, b: f32) -> f32 {
        if self.eval(a, b) {
            1.0
        } else {
            0.0
        }
    }
}

impl Reduction {
    /// The identity element an accumulator's cells start from.
    #[inline]
    pub fn identity(self) -> f32 {
        match self {
            Reduction::Sum => 0.0,
            Reduction::Min => f32::INFINITY,
            Reduction::Max => f32::NEG_INFINITY,
        }
    }

    /// Combines an accumulated value with a new contribution.
    #[inline]
    pub fn combine(self, acc: f32, v: f32) -> f32 {
        match self {
            Reduction::Sum => acc + v,
            Reduction::Min => acc.min(v),
            Reduction::Max => acc.max(v),
        }
    }

    /// Finishes a swept accumulator: a `Min`/`Max` cell that still holds
    /// the (infinite) identity was never touched, and becomes 0 — the
    /// zero-for-undefined convention of guarded cases.
    pub fn finish(self, cells: &mut [f32]) {
        if self == Reduction::Sum {
            return;
        }
        let id = self.identity();
        for v in cells.iter_mut().filter(|v| **v == id) {
            *v = 0.0;
        }
    }
}

impl ScalarType {
    /// The [`store_convert`] arguments of this type: its saturation range
    /// in `f32`, and whether stores round.
    pub fn store_rule(self) -> (Option<(f32, f32)>, bool) {
        let sat = self
            .saturation_range()
            .map(|(lo, hi)| (lo as f32, hi as f32));
        (sat, self.is_integral())
    }
}

/// Rounds half away from zero, like C's `roundf` (`f32::round`).
#[inline]
pub fn round_ties_away(v: f32) -> f32 {
    v.round()
}

/// The store conversion (and the value of a cast): clamp into `sat` if
/// given, then round half away from zero if `round`. A NaN passes the clamp
/// and the rounding unchanged.
#[inline]
pub fn store_convert(v: f32, sat: Option<(f32, f32)>, round: bool) -> f32 {
    let v = match sat {
        Some((lo, hi)) => v.clamp(lo, hi),
        None => v,
    };
    if round {
        round_ties_away(v)
    } else {
        v
    }
}

/// The data-dependent index conversion: the `f32` value of an index
/// argument that reads data, rounded half away from zero, with NaN → 0 and
/// ±∞ (or anything beyond `i64`) saturated. The caller clamps the result
/// into the producer's domain.
#[inline]
pub fn index_convert(v: f32) -> i64 {
    round_ties_away(v) as i64
}
