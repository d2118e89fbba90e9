//! Boolean conditions over expressions — the paper's `Condition` construct.

use crate::Expr;
use std::ops::{BitAnd, BitOr, Not};

/// Comparison operators usable in a [`Cond`]. [`CmpOp::eval`] gives each
/// its `f32` meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A boolean condition: comparisons combined with `&` (conjunction),
/// `|` (disjunction), and `!` (negation), mirroring the DSL in the paper
/// (`Condition(x,'>=',1) & Condition(y,'<=',C)`).
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// A comparison between two expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Flattens a conjunction tree into its leaf conditions.
    ///
    /// Used by the compiler to recognize rectangular case guards such as
    /// `x >= 1 & x <= R & y >= 1 & y <= C`.
    pub fn conjuncts(&self) -> Vec<&Cond> {
        let mut out = Vec::new();
        fn walk<'a>(c: &'a Cond, out: &mut Vec<&'a Cond>) {
            match c {
                Cond::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }
}

impl BitAnd for Cond {
    type Output = Cond;
    fn bitand(self, rhs: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(rhs))
    }
}

impl BitOr for Cond {
    type Output = Cond;
    fn bitor(self, rhs: Cond) -> Cond {
        Cond::Or(Box::new(self), Box::new(rhs))
    }
}

impl Not for Cond {
    type Output = Cond;
    fn not(self) -> Cond {
        Cond::Not(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    #[test]
    fn cmp_apply() {
        assert!(CmpOp::Lt.eval(1.0, 2.0));
        assert!(!CmpOp::Lt.eval(2.0, 2.0));
        assert!(CmpOp::Le.eval(2.0, 2.0));
        assert!(CmpOp::Ge.eval(2.0, 2.0));
        assert!(CmpOp::Eq.eval(3.0, 3.0));
        assert!(CmpOp::Ne.eval(3.0, 4.0));
    }

    #[test]
    fn conjunct_flattening() {
        let x = Expr::from(VarId::from_index(0));
        let c = x.clone().ge(1) & x.clone().le(10) & x.clone().ne_(5);
        assert_eq!(c.conjuncts().len(), 3);
        // A disjunction is a single conjunct.
        let d = x.clone().lt(0) | x.gt(10);
        assert_eq!(d.conjuncts().len(), 1);
    }

    #[test]
    fn not_builds() {
        let x = Expr::from(VarId::from_index(0));
        let c = !(x.lt(0));
        assert!(matches!(c, Cond::Not(_)));
    }
}
