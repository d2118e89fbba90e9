//! Chunked register kernels — the compiled form of one stage's expressions.

use crate::BufId;
use polymage_ir::{BinOp, CmpOp, UnOp};

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

impl Op {
    /// The destination register of this operation.
    pub fn dst(&self) -> RegId {
        match *self {
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
    }

    /// Calls `f` on every source register, including data-dependent load
    /// index registers.
    // Inlined: the evaluator calls it once per lane-varying op per chunk.
    #[inline]
    pub fn for_each_src(&self, mut f: impl FnMut(RegId)) {
        match self {
            Op::ConstF { .. } | Op::CoordF { .. } => {}
            Op::BinF { a, b, .. }
            | Op::CmpMask { a, b, .. }
            | Op::MaskAnd { a, b, .. }
            | Op::MaskOr { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Op::UnF { a, .. }
            | Op::MaskNot { a, .. }
            | Op::CastRound { a, .. }
            | Op::CastSat { a, .. } => f(*a),
            Op::SelectF { mask, a, b, .. } => {
                f(*mask);
                f(*a);
                f(*b);
            }
            Op::Load { plan, .. } => {
                for p in plan {
                    if let IdxPlan::Reg(r) = p {
                        f(*r);
                    }
                }
            }
        }
    }

    /// Calls `f` with mutable access to every source register.
    pub fn for_each_src_mut(&mut self, mut f: impl FnMut(&mut RegId)) {
        match self {
            Op::ConstF { .. } | Op::CoordF { .. } => {}
            Op::BinF { a, b, .. }
            | Op::CmpMask { a, b, .. }
            | Op::MaskAnd { a, b, .. }
            | Op::MaskOr { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::UnF { a, .. }
            | Op::MaskNot { a, .. }
            | Op::CastRound { a, .. }
            | Op::CastSat { a, .. } => f(a),
            Op::SelectF { mask, a, b, .. } => {
                f(mask);
                f(a);
                f(b);
            }
            Op::Load { plan, .. } => {
                for p in plan {
                    if let IdxPlan::Reg(r) = p {
                        f(r);
                    }
                }
            }
        }
    }

    /// Mutable access to the destination register.
    pub fn dst_mut(&mut self) -> &mut RegId {
        match self {
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
    }
}

/// Optimizer metadata attached to a kernel by
/// [`crate::optimize_kernel`](crate::opt::optimize_kernel).
///
/// `dep[r]` is a bitmask over the consumer loop dimensions: bit `d` is set
/// iff register `r`'s value can vary with coordinate `d` (transitively,
/// through operands and affine load indices). Because the executor picks
/// the chunk axis per region at run time, uniformity is decided at
/// evaluation time: a register is *chunk-invariant* for chunk axis `inner`
/// iff bit `inner` is clear, and the evaluator then computes it once per
/// row in a scalar preamble instead of once per lane per chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptMeta {
    /// Per-register dimension-dependence bitmask (indexed by register).
    pub dep: Vec<u32>,
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
    /// Uniformity metadata, present only on optimized kernels. `None` means
    /// the evaluator runs every op across all lanes (the pre-optimizer
    /// behavior).
    pub meta: Option<OptMeta>,
}

impl Kernel {
    /// The primary (value) output register.
    pub fn out(&self) -> RegId {
        self.outs[0]
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
        let k = Kernel {
            ops: vec![],
            nregs: 2,
            meta: None,
            outs: vec![RegId(1), RegId(0)],
        };
        assert_eq!(k.out(), RegId(1));
    }
}
