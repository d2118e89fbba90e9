//! Function and accumulator definitions — the stages of a pipeline.

use crate::{Cond, Expr, Interval, ScalarType, VarId};

/// A piecewise case: an optional guard condition and the value expression.
///
/// Matches the paper's `Case(condition, expression)`. All cases of a function
/// are expected to be mutually exclusive; the compiler checks the common
/// rectangular-guard case statically and the execution engine evaluates cases
/// in order (first matching case wins) so overlapping guards never produce
/// ambiguous results at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Guard; `None` means the case applies on the whole domain.
    pub cond: Option<Cond>,
    /// Value when the guard holds.
    pub expr: Expr,
}

impl Case {
    /// A guarded case.
    pub fn new(cond: Cond, expr: impl Into<Expr>) -> Self {
        Case {
            cond: Some(cond),
            expr: expr.into(),
        }
    }

    /// An unguarded case covering the whole domain.
    pub fn always(expr: impl Into<Expr>) -> Self {
        Case {
            cond: None,
            expr: expr.into(),
        }
    }
}

/// Reduction operators for accumulators. [`Reduction::combine`] gives each
/// its `f32` meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// `+=`
    Sum,
    /// `min=`
    Min,
    /// `max=`
    Max,
}

/// The update rule of an accumulator — the paper's
/// `Accumulate(hist(I(x,y)), 1, Sum)`.
///
/// For every point of the *reduction domain* (`red_vars` over `red_dom`),
/// the expressions in `target` (which may reference images/functions — this
/// is what makes histograms possible) are evaluated as access indices (see
/// [`Expr::at`]: a target that reads data is evaluated in `f32` and
/// converted once by [`crate::index_convert`]) to produce an index into the
/// accumulator's *variable domain*, and `value` is combined into that cell
/// with `op` ([`Reduction::combine`]). An out-of-range target is *clamped* into the
/// domain, dimension by dimension — the saturating-histogram convention,
/// and the same rule data-dependent loads follow — so every point of the
/// reduction domain contributes to some cell; interpreter and VM agree on
/// this.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulate {
    /// Variables of the reduction domain.
    pub red_vars: Vec<VarId>,
    /// Ranges of the reduction variables.
    pub red_dom: Vec<Interval>,
    /// Index expressions (one per variable-domain dimension), in reduction
    /// variables.
    pub target: Vec<Expr>,
    /// The contributed value, in reduction variables.
    pub value: Expr,
    /// How contributions combine.
    pub op: Reduction,
}

/// The body of a stage: either piecewise cases or a reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncBody {
    /// Declared but not yet defined (only valid while building).
    Undefined,
    /// Piecewise definition over the variable domain.
    Cases(Vec<Case>),
    /// Reduction over a separate reduction domain.
    Reduce(Accumulate),
}

/// A variable domain: the function's variables with their ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDom {
    /// Domain variables, outermost first.
    pub vars: Vec<VarId>,
    /// Range of each variable.
    pub dom: Vec<Interval>,
}

/// A fully-built pipeline stage (the paper's `Function` or `Accumulator`).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Stage name (unique within the pipeline).
    pub name: String,
    /// Variable domain.
    pub var_dom: VarDom,
    /// Declared element type.
    pub ty: ScalarType,
    /// Definition.
    pub body: FuncBody,
}

impl FuncDef {
    /// Number of domain dimensions.
    pub fn dims(&self) -> usize {
        self.var_dom.vars.len()
    }

    /// Whether this stage is an accumulator (reduction).
    pub fn is_reduction(&self) -> bool {
        matches!(self.body, FuncBody::Reduce(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_identities() {
        assert_eq!(Reduction::Sum.identity(), 0.0);
        assert_eq!(Reduction::Min.identity(), f32::INFINITY);
        assert_eq!(Reduction::Max.identity(), f32::NEG_INFINITY);
    }

    #[test]
    fn reduction_combine() {
        assert_eq!(Reduction::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(Reduction::Min.combine(2.0, 3.0), 2.0);
        assert_eq!(Reduction::Max.combine(2.0, 3.0), 3.0);
    }

    #[test]
    fn case_constructors() {
        let c = Case::always(1.0);
        assert!(c.cond.is_none());
        let x = Expr::from(VarId::from_index(0));
        let c = Case::new(x.clone().ge(0), x);
        assert!(c.cond.is_some());
    }
}
