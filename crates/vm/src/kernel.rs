//! Chunked register kernels — the compiled form of one stage's expressions.

use crate::BufId;
use polymage_ir::{round_ties_away, store_convert, BinOp, CmpOp, UnOp};

/// Index of a virtual register inside a [`Kernel`]'s register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(pub u16);

/// How one dimension of a load is indexed.
///
/// `Affine` covers every statically analyzable index
/// `(q·coord(dim) + o) / m` (floor division); `dim == None` is a constant
/// index. `Reg` is a data-dependent index taken from a register (converted
/// by `polymage_ir::index_convert`, then clamped into the buffer's valid
/// range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxPlan {
    /// `(q·coord(dim) + o) / m`, with `coord(None) = 0`.
    Affine {
        /// Consumer loop dimension supplying the coordinate.
        dim: Option<usize>,
        /// Coefficient.
        q: i64,
        /// Offset (parameters already substituted).
        o: i64,
        /// Positive floor divisor.
        m: i64,
    },
    /// Data-dependent index from a register.
    Reg(RegId),
}

/// One chunk operation. All operands are registers holding `len` lanes.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Broadcast a constant.
    ConstF {
        /// Destination register.
        dst: RegId,
        /// The value.
        val: f32,
    },
    /// Materialize the consumer coordinate of `dim` as lane values
    /// (the innermost dimension yields `x0, x0+1, …`; outer dimensions
    /// broadcast).
    CoordF {
        /// Destination register.
        dst: RegId,
        /// Consumer loop dimension.
        dim: usize,
    },
    /// Binary operation `dst = a ⊕ b`.
    BinF {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: RegId,
        /// Left operand.
        a: RegId,
        /// Right operand.
        b: RegId,
    },
    /// Unary operation `dst = ⊖a`.
    UnF {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: RegId,
        /// Operand.
        a: RegId,
    },
    /// Comparison producing a 1.0/0.0 mask.
    CmpMask {
        /// Operation.
        op: CmpOp,
        /// Destination register.
        dst: RegId,
        /// Left operand.
        a: RegId,
        /// Right operand.
        b: RegId,
    },
    /// Mask conjunction (`a·b`).
    MaskAnd {
        /// Destination register.
        dst: RegId,
        /// Left mask.
        a: RegId,
        /// Right mask.
        b: RegId,
    },
    /// Mask disjunction (`max(a,b)`).
    MaskOr {
        /// Destination register.
        dst: RegId,
        /// Left mask.
        a: RegId,
        /// Right mask.
        b: RegId,
    },
    /// Mask negation (`1−a`).
    MaskNot {
        /// Destination register.
        dst: RegId,
        /// Mask operand.
        a: RegId,
    },
    /// Lane-wise select: `dst = mask ≠ 0 ? a : b`.
    SelectF {
        /// Destination register.
        dst: RegId,
        /// Mask register.
        mask: RegId,
        /// Taken where mask ≠ 0.
        a: RegId,
        /// Taken where mask = 0.
        b: RegId,
    },
    /// Integral cast: round to nearest (ties away from zero).
    CastRound {
        /// Destination register.
        dst: RegId,
        /// Operand.
        a: RegId,
    },
    /// Saturating integral cast: clamp to `[lo, hi]`, then round.
    CastSat {
        /// Destination register.
        dst: RegId,
        /// Operand.
        a: RegId,
        /// Lower clamp bound.
        lo: f32,
        /// Upper clamp bound.
        hi: f32,
    },
    /// Load a chunk from a buffer.
    Load {
        /// Destination register.
        dst: RegId,
        /// Source buffer.
        buf: BufId,
        /// One plan per buffer dimension.
        plan: Vec<IdxPlan>,
    },
}

/// The destination field of `$op` (an `&Op` or `&mut Op`), borrowed alike.
macro_rules! dst_of {
    ($op:expr) => {
        match $op {
            Op::ConstF { dst, .. }
            | Op::CoordF { dst, .. }
            | Op::BinF { dst, .. }
            | Op::UnF { dst, .. }
            | Op::CmpMask { dst, .. }
            | Op::MaskAnd { dst, .. }
            | Op::MaskOr { dst, .. }
            | Op::MaskNot { dst, .. }
            | Op::SelectF { dst, .. }
            | Op::CastRound { dst, .. }
            | Op::CastSat { dst, .. }
            | Op::Load { dst, .. } => dst,
        }
    };
}

/// Runs `$each` with `$r` bound to each source field of `$op` (an `&Op` or
/// `&mut Op`) in operand order, data-dependent load indices included.
macro_rules! each_src {
    ($op:expr, |$r:ident| $each:expr) => {
        match $op {
            Op::ConstF { .. } | Op::CoordF { .. } => {}
            Op::BinF { a, b, .. }
            | Op::CmpMask { a, b, .. }
            | Op::MaskAnd { a, b, .. }
            | Op::MaskOr { a, b, .. } => {
                let $r = a;
                $each;
                let $r = b;
                $each;
            }
            Op::UnF { a: $r, .. }
            | Op::MaskNot { a: $r, .. }
            | Op::CastRound { a: $r, .. }
            | Op::CastSat { a: $r, .. } => $each,
            Op::SelectF { mask, a, b, .. } => {
                let $r = mask;
                $each;
                let $r = a;
                $each;
                let $r = b;
                $each;
            }
            Op::Load { plan, .. } => {
                for p in plan {
                    if let IdxPlan::Reg($r) = p {
                        $each;
                    }
                }
            }
        }
    };
}

impl Op {
    /// The destination register of this operation.
    pub fn dst(&self) -> RegId {
        *dst_of!(self)
    }

    /// This op's value at one point, from its operands' values (`src`)
    /// and the point's coordinates, through the op table of `polymage_ir`
    /// (`BinOp::eval` and friends) — the functions the evaluator's lane
    /// loops run, so a value computed here is bit-identical to the same op
    /// evaluated across a chunk. The evaluator's uniform preamble and the
    /// optimizer's constant folding both evaluate through it.
    ///
    /// # Panics
    ///
    /// Panics on a load: its value is a buffer element, not a function of
    /// operands.
    #[inline]
    pub fn eval_scalar(&self, coords: &[i64], src: impl Fn(RegId) -> f32) -> f32 {
        match *self {
            Op::ConstF { val, .. } => val,
            Op::CoordF { dim, .. } => coords[dim] as f32,
            Op::BinF { op, a, b, .. } => op.eval(src(a), src(b)),
            Op::UnF { op, a, .. } => op.eval(src(a)),
            Op::CmpMask { op, a, b, .. } => op.mask(src(a), src(b)),
            Op::MaskAnd { a, b, .. } => src(a) * src(b),
            Op::MaskOr { a, b, .. } => src(a).max(src(b)),
            Op::MaskNot { a, .. } => 1.0 - src(a),
            Op::SelectF { mask, a, b, .. } => {
                if src(mask) != 0.0 {
                    src(a)
                } else {
                    src(b)
                }
            }
            Op::CastRound { a, .. } => round_ties_away(src(a)),
            Op::CastSat { a, lo, hi, .. } => store_convert(src(a), Some((lo, hi)), true),
            Op::Load { .. } => panic!("a load's value is a buffer element"),
        }
    }

    /// Calls `f` on every source register, including data-dependent load
    /// index registers.
    // Inlined: the evaluator calls it once per lane-varying op per chunk.
    #[inline]
    pub fn for_each_src(&self, mut f: impl FnMut(RegId)) {
        each_src!(self, |r| f(*r));
    }

    /// Calls `f` with mutable access to every source register.
    pub fn for_each_src_mut(&mut self, mut f: impl FnMut(&mut RegId)) {
        each_src!(self, |r| f(r));
    }

    /// Mutable access to the destination register.
    pub fn dst_mut(&mut self) -> &mut RegId {
        dst_of!(self)
    }
}

/// A straight-line program over chunk registers with one or more result
/// registers (`outs[0]` is the value; reductions add target-index outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Operations in execution order.
    pub ops: Vec<Op>,
    /// Number of registers used.
    pub nregs: usize,
    /// Result registers.
    pub outs: Vec<RegId>,
    /// Per-register dimension-dependence masks (indexed by register): bit
    /// `d` is set iff the register's value can vary with consumer
    /// coordinate `d` (transitively, through operands and affine load
    /// indices). Coordinates 31 and beyond share bit 31.
    ///
    /// The executor picks the chunk axis per region at run time, so
    /// uniformity is decided at evaluation time: a register is
    /// chunk-invariant for chunk axis `inner` iff bit `inner.min(31)` is
    /// clear, and the evaluator then computes it once per row in a scalar
    /// preamble instead of once per lane per chunk.
    pub dep: Vec<u32>,
}

impl Kernel {
    /// A kernel running `ops` with result registers `outs`. Derives
    /// `nregs` (one past the highest register named) and `dep`. Never
    /// panics: a malformed kernel is built as given, for
    /// `polymage_core::validate` to report.
    pub fn new(ops: Vec<Op>, outs: Vec<RegId>) -> Kernel {
        let mut nregs = 0;
        let mut see = |r: RegId| nregs = nregs.max(r.0 as usize + 1);
        for op in &ops {
            see(op.dst());
            op.for_each_src(&mut see);
        }
        outs.iter().copied().for_each(see);
        let mut k = Kernel {
            ops,
            nregs,
            outs,
            dep: Vec::new(),
        };
        k.derive_dep();
        k
    }

    /// Recomputes [`Kernel::dep`] from the ops (after a rewrite).
    pub(crate) fn derive_dep(&mut self) {
        let mut dep = vec![0u32; self.nregs];
        for op in &self.ops {
            let mut d = match op {
                Op::CoordF { dim, .. } => 1 << (*dim).min(31),
                Op::Load { plan, .. } => plan.iter().fold(0, |d, p| match *p {
                    IdxPlan::Affine {
                        dim: Some(dd), q, ..
                    } if q != 0 => d | 1 << dd.min(31),
                    _ => d,
                }),
                _ => 0,
            };
            op.for_each_src(|r| d |= dep.get(r.0 as usize).copied().unwrap_or(0));
            if let Some(slot) = dep.get_mut(op.dst().0 as usize) {
                *slot = d;
            }
        }
        self.dep = dep;
    }

    /// The primary (value) output register.
    pub fn out(&self) -> RegId {
        self.outs[0]
    }
}

/// Shorthand op constructors for the crate's unit tests.
#[cfg(test)]
pub(crate) mod test_ops {
    use super::*;

    pub(crate) fn cf(dst: u16, val: f32) -> Op {
        Op::ConstF {
            dst: RegId(dst),
            val,
        }
    }

    pub(crate) fn coord(dst: u16, dim: usize) -> Op {
        Op::CoordF {
            dst: RegId(dst),
            dim,
        }
    }

    pub(crate) fn bin(op: BinOp, dst: u16, a: u16, b: u16) -> Op {
        Op::BinF {
            op,
            dst: RegId(dst),
            a: RegId(a),
            b: RegId(b),
        }
    }

    /// `(q·coord(dim) + o) / m`.
    pub(crate) fn affine(dim: usize, q: i64, o: i64, m: i64) -> IdxPlan {
        IdxPlan::Affine {
            dim: Some(dim),
            q,
            o,
            m,
        }
    }

    /// A load from buffer 0.
    pub(crate) fn load(dst: u16, plan: Vec<IdxPlan>) -> Op {
        Op::Load {
            dst: RegId(dst),
            buf: BufId(0),
            plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_extraction() {
        let op = Op::BinF {
            op: BinOp::Add,
            dst: RegId(3),
            a: RegId(1),
            b: RegId(2),
        };
        assert_eq!(op.dst(), RegId(3));
        let op = Op::Load {
            dst: RegId(5),
            buf: BufId(0),
            plan: vec![],
        };
        assert_eq!(op.dst(), RegId(5));
    }

    #[test]
    fn kernel_primary_out() {
        let k = Kernel::new(vec![], vec![RegId(1), RegId(0)]);
        assert_eq!(k.out(), RegId(1));
    }
}
