//! The kernel optimizer: a pass pipeline over [`Kernel`] SSA.
//!
//! `core::lower` emits kernels structurally — one op per expression node —
//! so they carry constants that are re-broadcast every chunk, duplicate
//! subexpressions across case lowering, guard arithmetic that never feeds a
//! result, and loads that walk a generic plan. This module rewrites kernels
//! between lowering and execution:
//!
//! 1. **Constant folding** — ops whose operands are all constants are
//!    evaluated at compile time by [`Op::eval_scalar`], the function the
//!    evaluator's uniform preamble runs (over the op table of
//!    `polymage_ir`, as the lane loops do), so folded results are
//!    bit-identical to runtime results.
//! 2. **Identity / algebraic simplification and strength reduction** —
//!    restricted to rewrites that are **bit-exact** over all `f32` inputs
//!    (or over the values the operand can take, e.g. 0/1 masks). See
//!    `DESIGN.md` §3.2 for the catalog and the exactness arguments;
//!    notably `x + 0.0 → x` is *not* applied (wrong for `x = -0.0`) but
//!    `x + (-0.0) → x` is.
//! 3. **Common-subexpression elimination** — structural, like the
//!    `KernelBuilder`'s emit-time CSE, re-run because folding and renaming
//!    expose new duplicates.
//! 4. **Dead-code elimination** — ops whose results never reach `outs`
//!    (value, store mask, reduction indices) are dropped.
//! 5. **Register compaction** — registers are densely renumbered in
//!    definition order, shrinking the `RegFile` working set and restoring
//!    the strict operands-precede-destination SSA order the evaluator's
//!    disjoint borrows rely on.
//!
//! Finally the pass re-derives the kernel's dependence masks
//! ([`Kernel::dep`]) over the rewritten ops, as `Kernel::new` derived them
//! for the raw kernel, and reports how many ops are chunk-invariant and
//! which load classes they take under the nominal chunk axis.
//!
//! All rewrites preserve bit-exact results, and `polymage_core` runs them
//! on every kernel it builds. The uniform preamble and row-resolved loads
//! are the evaluator's, not rewrites: they need only the dependence masks
//! every kernel carries.

use crate::loadclass::{classify, LoadHistogram};
use crate::{Kernel, Op, RegId};
use polymage_ir::{round_ties_away, BinOp, UnOp};

/// Per-kernel optimization statistics, surfaced through
/// `polymage_core::CompileReport` and `bin/inspect`.
#[derive(Debug, Clone, Default)]
pub struct KernelOptReport {
    /// Kernel identifier: `group/stage#case`.
    pub name: String,
    /// Op count before optimization.
    pub ops_before: usize,
    /// Op count after optimization.
    pub ops_after: usize,
    /// Register count before optimization.
    pub regs_before: usize,
    /// Register count after compaction.
    pub regs_after: usize,
    /// Ops replaced by compile-time constants.
    pub folded: usize,
    /// Identity/strength-reduction/CSE rewrites applied.
    pub simplified: usize,
    /// Ops that are chunk-invariant under the nominal (innermost) chunk
    /// axis — evaluated once per row instead of per lane.
    pub uniform_ops: usize,
    /// Load classes under the nominal chunk axis.
    pub loads: LoadHistogram,
}

impl KernelOptReport {
    /// Ops removed by folding + DCE (before − after).
    pub fn eliminated_ops(&self) -> usize {
        self.ops_before.saturating_sub(self.ops_after)
    }

    /// Registers removed by compaction (before − after).
    pub fn eliminated_regs(&self) -> usize {
        self.regs_before.saturating_sub(self.regs_after)
    }
}

impl std::fmt::Display for KernelOptReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: ops {}→{} (folded {}, simplified {}), regs {}→{}, uniform {}, loads [{}]",
            self.name,
            self.ops_before,
            self.ops_after,
            self.folded,
            self.simplified,
            self.regs_before,
            self.regs_after,
            self.uniform_ops,
            self.loads
        )
    }
}

/// Virtual-coordinate values of dimensions the executed rect pins to a
/// single point. Every region a case runs over is a sub-rect of
/// `case.rect ∩ dom`, so a dimension that is a single point there is that
/// point in every execution and the kernel's `CoordF` for it folds to a
/// constant (per-channel cases of color pipelines are the typical source).
/// Points off a stride's phase lattice yield an empty virtual rect — the
/// case never runs — so the folded value is irrelevant there.
///
/// Public because `polymage-core` drives the optimizer per kernel: it
/// compares the fixed-dimension signature of a freshly bound rect against
/// the one a plan's kernel prototype was specialized for, reusing the
/// kernel verbatim when they match.
pub fn fixed_dims(rect: &polymage_poly::Rect, steps: &[(i64, i64)]) -> Vec<Option<i64>> {
    rect.ranges()
        .iter()
        .enumerate()
        .map(|(d, &(lo, hi))| {
            if lo == hi {
                let (s, ph) = steps.get(d).copied().unwrap_or((1, 0));
                Some((lo - ph).div_euclid(s))
            } else {
                None
            }
        })
        .collect()
}

/// Re-points a case's store mask after register renumbering, and drops it
/// entirely when the optimizer proved it a nonzero constant (every lane
/// stored — the unmasked path is bit-identical and takes the contiguous
/// store loop). Public for `polymage-core`'s kernel construction.
pub fn sync_mask(kernel: &Kernel, mask: &mut Option<RegId>) {
    if mask.is_none() {
        return;
    }
    let m = kernel.outs[1];
    *mask = Some(m);
    if let Some(Op::ConstF { val, .. }) = kernel.ops.iter().find(|op| op.dst() == m) {
        if *val != 0.0 {
            *mask = None;
        }
    }
}

/// Buffers loaded by a set of kernels (first-seen order), optionally
/// excluding one buffer (a scan's own output, which is bound separately).
/// Public for `polymage-core`'s per-case instantiation path.
pub fn collect_reads<'a>(
    kernels: impl Iterator<Item = &'a Kernel>,
    exclude: Option<crate::BufId>,
) -> Vec<crate::BufId> {
    let mut reads: Vec<crate::BufId> = Vec::new();
    for k in kernels {
        for op in &k.ops {
            if let Op::Load { buf, .. } = op {
                if Some(*buf) != exclude && !reads.contains(buf) {
                    reads.push(*buf);
                }
            }
        }
    }
    reads
}

/// Optimizes one kernel in place. `ndims` is the dimensionality of the loop
/// domain the kernel is evaluated over (its `CoordF`/plan dims index it);
/// `fixed[d] = Some(v)` declares that coordinate `d` is always `v` (a
/// single-point dimension of the executed rect — pass `&[]` when nothing
/// is known).
///
/// The kernel must be in SSA form (as `core::lower` emits and
/// `core::validate` checks); the result is again strict SSA with densely
/// numbered registers, and its dependence masks are re-derived.
pub fn optimize_kernel(
    k: &mut Kernel,
    ndims: usize,
    fixed: &[Option<i64>],
    name: String,
) -> KernelOptReport {
    let mut rpt = KernelOptReport {
        name,
        ops_before: k.ops.len(),
        ops_after: k.ops.len(),
        regs_before: k.nregs,
        regs_after: k.nregs,
        ..Default::default()
    };
    let mut folded = 0usize;
    let mut simplified = 0usize;
    for _ in 0..8 {
        let c1 = fold_pass(k, fixed, &mut folded, &mut simplified);
        let c2 = cse_pass(k, &mut simplified);
        if !c1 && !c2 {
            break;
        }
    }
    dce_pass(k);
    compact_pass(k);
    k.derive_dep();
    let inner = ndims.saturating_sub(1);
    let bit = 1u32 << inner.min(31);
    rpt.folded = folded;
    rpt.simplified = simplified;
    rpt.ops_after = k.ops.len();
    rpt.regs_after = k.nregs;
    for op in &k.ops {
        if k.dep[op.dst().0 as usize] & bit == 0 {
            rpt.uniform_ops += 1;
        }
        if let Op::Load { plan, .. } = op {
            rpt.loads.add(classify(plan, &k.dep, inner));
        }
    }
    rpt
}

const POS_ZERO: u32 = 0.0f32.to_bits();
const NEG_ZERO: u32 = (-0.0f32).to_bits();
const ONE: u32 = 1.0f32.to_bits();

/// Whether `c` is a finite power of two whose reciprocal is also exactly
/// representable — then `x / c` and `x · (1/c)` are both the correctly
/// rounded value of the same real number, hence bit-equal.
fn exact_recip(c: f32) -> Option<f32> {
    if c == 0.0 || !c.is_finite() || c.to_bits() & 0x007f_ffff != 0 || c.abs() < f32::MIN_POSITIVE {
        return None; // not a normal power of two
    }
    let r = 1.0 / c;
    if r.is_finite() && r != 0.0 && 1.0 / r == c {
        Some(r)
    } else {
        None
    }
}

/// Per-register facts tracked by the fold/simplify pass.
struct Facts {
    /// Known constant value.
    cval: Vec<Option<f32>>,
    /// Value is exactly 0.0 or 1.0 (comparison/mask outputs, 0/1 consts).
    is_mask: Vec<bool>,
    /// Value is round-idempotent (`round(x)` is bit-identical to `x`):
    /// outputs of Floor/Ceil/CastRound/CastSat, integer coordinates, and
    /// closed arithmetic over them.
    int_valued: Vec<bool>,
    /// Defined as `UnF(op, src)`.
    unary: Vec<Option<(UnOp, RegId)>>,
    /// Defined as `MaskNot(src)`.
    not_of: Vec<Option<RegId>>,
}

impl Facts {
    fn new(n: usize) -> Facts {
        Facts {
            cval: vec![None; n],
            is_mask: vec![false; n],
            int_valued: vec![false; n],
            unary: vec![None; n],
            not_of: vec![None; n],
        }
    }

    fn push_default(&mut self) {
        self.cval.push(None);
        self.is_mask.push(false);
        self.int_valued.push(false);
        self.unary.push(None);
        self.not_of.push(None);
    }

    fn record_const(&mut self, r: RegId, val: f32) {
        let i = r.0 as usize;
        self.cval[i] = Some(val);
        self.is_mask[i] = val.to_bits() == POS_ZERO || val.to_bits() == ONE;
        self.int_valued[i] = val.is_finite() && round_ties_away(val).to_bits() == val.to_bits();
    }
}

/// One forward fold/simplify sweep. Returns whether anything changed.
///
/// Rewrites never copy values: an op that simplifies to one of its operands
/// is *renamed away* (later uses point at the operand), keeping SSA order
/// intact. Strength reduction may append fresh constant registers; the
/// final compaction restores dense numbering.
#[allow(clippy::too_many_lines)]
fn fold_pass(
    k: &mut Kernel,
    fixed: &[Option<i64>],
    folded: &mut usize,
    simplified: &mut usize,
) -> bool {
    let n = k.nregs;
    let mut rename: Vec<RegId> = (0..n).map(|i| RegId(i as u16)).collect();
    let mut facts = Facts::new(n);
    let mut out_ops: Vec<Op> = Vec::with_capacity(k.ops.len());
    let mut changed = false;
    let ops = std::mem::take(&mut k.ops);

    // Shorthand for "this op's result is register `t` already".
    macro_rules! alias {
        ($rename:ident, $dst:expr, $t:expr, $simplified:ident, $changed:ident) => {{
            $rename[$dst.0 as usize] = $t;
            *$simplified += 1;
            $changed = true;
            continue;
        }};
    }

    for mut op in ops {
        op.for_each_src_mut(|r| *r = rename[r.0 as usize]);
        let dst = op.dst();
        let di = dst.0 as usize;
        // An op whose operands are all constants folds to its value (a
        // constant select mask is resolved by aliasing below).
        if !matches!(
            op,
            Op::ConstF { .. } | Op::CoordF { .. } | Op::SelectF { .. } | Op::Load { .. }
        ) {
            let mut all_const = true;
            op.for_each_src(|r| all_const &= facts.cval[r.0 as usize].is_some());
            if all_const {
                let val =
                    op.eval_scalar(&[], |r| facts.cval[r.0 as usize].expect("constant operand"));
                facts.record_const(dst, val);
                out_ops.push(Op::ConstF { dst, val });
                *folded += 1;
                changed = true;
                continue;
            }
        }
        match op {
            Op::ConstF { val, .. } => {
                facts.record_const(dst, val);
                out_ops.push(op);
            }
            Op::CoordF { dim, .. } => {
                // A single-point dimension's coordinate is a constant
                // (CoordF materializes exactly `v as f32` in every lane).
                if let Some(Some(v)) = fixed.get(dim) {
                    let val = *v as f32;
                    facts.record_const(dst, val);
                    out_ops.push(Op::ConstF { dst, val });
                    *folded += 1;
                    changed = true;
                    continue;
                }
                facts.int_valued[di] = true;
                out_ops.push(op);
            }
            Op::BinF { op: bop, a, b, .. } => {
                let (ca, cb) = (facts.cval[a.0 as usize], facts.cval[b.0 as usize]);
                match bop {
                    // x + (-0.0) → x and (-0.0) + x → x are exact for every
                    // f32; x + 0.0 is not (x = -0.0 gives +0.0).
                    BinOp::Add => {
                        if cb.map(f32::to_bits) == Some(NEG_ZERO) {
                            alias!(rename, dst, a, simplified, changed);
                        }
                        if ca.map(f32::to_bits) == Some(NEG_ZERO) {
                            alias!(rename, dst, b, simplified, changed);
                        }
                    }
                    // x − 0.0 → x is exact; x − (-0.0) is not (x = -0.0).
                    BinOp::Sub => {
                        if cb.map(f32::to_bits) == Some(POS_ZERO) {
                            alias!(rename, dst, a, simplified, changed);
                        }
                    }
                    BinOp::Mul => {
                        if cb.map(f32::to_bits) == Some(ONE) {
                            alias!(rename, dst, a, simplified, changed);
                        }
                        if ca.map(f32::to_bits) == Some(ONE) {
                            alias!(rename, dst, b, simplified, changed);
                        }
                    }
                    BinOp::Div => {
                        if cb.map(f32::to_bits) == Some(ONE) {
                            alias!(rename, dst, a, simplified, changed);
                        }
                        // Strength-reduce division by an exact power of two.
                        if let Some(r) = cb.and_then(exact_recip) {
                            if k.nregs < u16::MAX as usize {
                                let c = RegId(k.nregs as u16);
                                k.nregs += 1;
                                rename.push(c);
                                facts.push_default();
                                facts.record_const(c, r);
                                out_ops.push(Op::ConstF { dst: c, val: r });
                                out_ops.push(Op::BinF {
                                    op: BinOp::Mul,
                                    dst,
                                    a,
                                    b: c,
                                });
                                *simplified += 1;
                                changed = true;
                                continue;
                            }
                        }
                    }
                    // min/max of a register with itself is that register
                    // (bit-exact including -0.0 and NaN propagation).
                    BinOp::Min | BinOp::Max => {
                        if a == b {
                            alias!(rename, dst, a, simplified, changed);
                        }
                    }
                    BinOp::Mod | BinOp::Pow => {}
                }
                facts.int_valued[di] = matches!(
                    bop,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max
                ) && facts.int_valued[a.0 as usize]
                    && facts.int_valued[b.0 as usize];
                out_ops.push(op);
            }
            Op::UnF { op: uop, a, .. } => {
                let ua = facts.unary[a.0 as usize];
                match uop {
                    UnOp::Neg => {
                        if let Some((UnOp::Neg, x)) = ua {
                            alias!(rename, dst, x, simplified, changed);
                        }
                    }
                    UnOp::Abs => {
                        if matches!(ua, Some((UnOp::Abs, _))) {
                            alias!(rename, dst, a, simplified, changed);
                        }
                        // |−x| = |x| (sign-bit ops, bit-exact).
                        if let Some((UnOp::Neg, x)) = ua {
                            op = Op::UnF {
                                op: UnOp::Abs,
                                dst,
                                a: x,
                            };
                            *simplified += 1;
                            changed = true;
                        }
                    }
                    UnOp::Floor | UnOp::Ceil if facts.int_valued[a.0 as usize] => {
                        alias!(rename, dst, a, simplified, changed);
                    }
                    _ => {}
                }
                if let Op::UnF { op: uop, a, .. } = op {
                    facts.unary[di] = Some((uop, a));
                    facts.int_valued[di] = matches!(uop, UnOp::Floor | UnOp::Ceil);
                }
                out_ops.push(op);
            }
            Op::CmpMask { .. } => {
                facts.is_mask[di] = true;
                facts.int_valued[di] = true;
                out_ops.push(op);
            }
            Op::MaskAnd { a, b, .. } => {
                let (ca, cb) = (facts.cval[a.0 as usize], facts.cval[b.0 as usize]);
                // m · 1 → m (1.0 is the exact multiplicative identity).
                if cb.map(f32::to_bits) == Some(ONE) {
                    alias!(rename, dst, a, simplified, changed);
                }
                if ca.map(f32::to_bits) == Some(ONE) {
                    alias!(rename, dst, b, simplified, changed);
                }
                // m · 0 → 0 only when m is a 0/1 mask (for general f32 the
                // product's sign/NaN could differ).
                if cb.map(f32::to_bits) == Some(POS_ZERO) && facts.is_mask[a.0 as usize]
                    || ca.map(f32::to_bits) == Some(POS_ZERO) && facts.is_mask[b.0 as usize]
                {
                    facts.record_const(dst, 0.0);
                    out_ops.push(Op::ConstF { dst, val: 0.0 });
                    *folded += 1;
                    changed = true;
                    continue;
                }
                if a == b && facts.is_mask[a.0 as usize] {
                    alias!(rename, dst, a, simplified, changed);
                }
                facts.is_mask[di] = facts.is_mask[a.0 as usize] && facts.is_mask[b.0 as usize];
                facts.int_valued[di] = facts.is_mask[di];
                out_ops.push(op);
            }
            Op::MaskOr { a, b, .. } => {
                let (ca, cb) = (facts.cval[a.0 as usize], facts.cval[b.0 as usize]);
                // max(m, m) → m is exact for every f32.
                if a == b {
                    alias!(rename, dst, a, simplified, changed);
                }
                // max(m, 1) → 1 and max(m, 0) → m when m ∈ {0, 1}.
                if (cb.map(f32::to_bits) == Some(ONE) && facts.is_mask[a.0 as usize])
                    || (ca.map(f32::to_bits) == Some(ONE) && facts.is_mask[b.0 as usize])
                {
                    facts.record_const(dst, 1.0);
                    out_ops.push(Op::ConstF { dst, val: 1.0 });
                    *folded += 1;
                    changed = true;
                    continue;
                }
                if cb.map(f32::to_bits) == Some(POS_ZERO) && facts.is_mask[a.0 as usize] {
                    alias!(rename, dst, a, simplified, changed);
                }
                if ca.map(f32::to_bits) == Some(POS_ZERO) && facts.is_mask[b.0 as usize] {
                    alias!(rename, dst, b, simplified, changed);
                }
                facts.is_mask[di] = facts.is_mask[a.0 as usize] && facts.is_mask[b.0 as usize];
                facts.int_valued[di] = facts.is_mask[di];
                out_ops.push(op);
            }
            Op::MaskNot { a, .. } => {
                // ¬¬m → m when m ∈ {0, 1} (1−(1−m) is exact there).
                if let Some(x) = facts.not_of[a.0 as usize] {
                    if facts.is_mask[x.0 as usize] {
                        alias!(rename, dst, x, simplified, changed);
                    }
                }
                facts.not_of[di] = Some(a);
                facts.is_mask[di] = facts.is_mask[a.0 as usize];
                facts.int_valued[di] = facts.is_mask[di];
                out_ops.push(op);
            }
            Op::SelectF { mask, a, b, .. } => {
                if let Some(c) = facts.cval[mask.0 as usize] {
                    let t = if c != 0.0 { a } else { b };
                    alias!(rename, dst, t, simplified, changed);
                }
                if a == b {
                    alias!(rename, dst, a, simplified, changed);
                }
                facts.is_mask[di] = facts.is_mask[a.0 as usize] && facts.is_mask[b.0 as usize];
                facts.int_valued[di] =
                    facts.int_valued[a.0 as usize] && facts.int_valued[b.0 as usize];
                out_ops.push(op);
            }
            Op::CastRound { a, .. } => {
                // round(x) → x when x is already round-idempotent.
                if facts.int_valued[a.0 as usize] {
                    alias!(rename, dst, a, simplified, changed);
                }
                facts.int_valued[di] = true;
                facts.is_mask[di] = facts.is_mask[a.0 as usize];
                out_ops.push(op);
            }
            Op::CastSat { .. } => {
                facts.int_valued[di] = true;
                out_ops.push(op);
            }
            Op::Load { .. } => out_ops.push(op),
        }
    }
    for o in &mut k.outs {
        *o = rename[o.0 as usize];
    }
    k.ops = out_ops;
    changed
}

/// Structural common-subexpression elimination (same keying as the
/// builder's emit-time CSE: the op with its destination zeroed).
fn cse_pass(k: &mut Kernel, simplified: &mut usize) -> bool {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    let mut rename: Vec<RegId> = (0..k.nregs).map(|i| RegId(i as u16)).collect();
    let mut seen: HashMap<String, RegId> = HashMap::new();
    let mut out_ops: Vec<Op> = Vec::with_capacity(k.ops.len());
    let mut changed = false;
    let ops = std::mem::take(&mut k.ops);
    for mut op in ops {
        op.for_each_src_mut(|r| *r = rename[r.0 as usize]);
        let dst = op.dst();
        let mut key_op = op.clone();
        *key_op.dst_mut() = RegId(u16::MAX);
        match seen.entry(format!("{key_op:?}")) {
            Entry::Occupied(e) => {
                rename[dst.0 as usize] = *e.get();
                *simplified += 1;
                changed = true;
            }
            Entry::Vacant(e) => {
                e.insert(dst);
                out_ops.push(op);
            }
        }
    }
    for o in &mut k.outs {
        *o = rename[o.0 as usize];
    }
    k.ops = out_ops;
    changed
}

/// Drops ops whose results never reach `outs` (directly or transitively).
fn dce_pass(k: &mut Kernel) {
    let mut live = vec![false; k.nregs];
    for o in &k.outs {
        live[o.0 as usize] = true;
    }
    let mut keep = vec![false; k.ops.len()];
    for (i, op) in k.ops.iter().enumerate().rev() {
        if live[op.dst().0 as usize] {
            keep[i] = true;
            op.for_each_src(|r| live[r.0 as usize] = true);
        }
    }
    let mut i = 0;
    k.ops.retain(|_| {
        let keep_it = keep[i];
        i += 1;
        keep_it
    });
}

/// Densely renumbers registers in definition order. Restores the strict
/// `operands < destination` SSA invariant the evaluator's disjoint borrows
/// (`RegFile::tri`/`quad`) rely on.
fn compact_pass(k: &mut Kernel) {
    let mut map: Vec<Option<u16>> = vec![None; k.nregs];
    let mut next: u16 = 0;
    for op in &mut k.ops {
        op.for_each_src_mut(|r| {
            r.0 = map[r.0 as usize].expect("register used before definition");
        });
        let d = op.dst_mut();
        map[d.0 as usize] = Some(next);
        d.0 = next;
        next += 1;
    }
    for o in &mut k.outs {
        o.0 = map[o.0 as usize].expect("undefined output register");
    }
    k.nregs = next as usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_kernel, ChunkCtx, RegFile};
    use crate::kernel::test_ops::{affine, bin, cf, coord, load};
    use polymage_ir::CmpOp;

    fn run(k: &Kernel, coords: &[i64], len: usize) -> Vec<f32> {
        let ctx = ChunkCtx {
            coords,
            len,
            inner: coords.len() - 1,
            bufs: &[],
        };
        let mut regs = RegFile::new();
        regs.begin_row();
        eval_kernel(k, &ctx, &mut regs);
        regs.reg(k.out())[..len].to_vec()
    }

    #[test]
    fn folds_constants_and_dces() {
        // (2 + 3) * x, plus a dead subtree
        let mut k = Kernel::new(
            vec![
                cf(0, 2.0),
                cf(1, 3.0),
                bin(BinOp::Add, 2, 0, 1),
                coord(3, 0),
                bin(BinOp::Mul, 4, 2, 3),
                bin(BinOp::Sub, 5, 0, 1), // dead
            ],
            vec![RegId(4)],
        );
        let unopt = k.clone();
        let rpt = optimize_kernel(&mut k, 1, &[], "t".into());
        assert!(rpt.folded >= 1, "constant add folds");
        assert!(rpt.ops_after < rpt.ops_before, "dead op removed");
        assert_eq!(run(&k, &[3], 4), run(&unopt, &[3], 4));
    }

    #[test]
    fn identity_rewrites_are_bit_exact() {
        // x * 1.0 → x; x / 2.0 → x * 0.5; min(x, x) → x
        let mut k = Kernel::new(
            vec![
                coord(0, 0),
                cf(1, 1.0),
                bin(BinOp::Mul, 2, 0, 1),
                cf(3, 2.0),
                bin(BinOp::Div, 4, 2, 3),
                bin(BinOp::Min, 5, 4, 4),
            ],
            vec![RegId(5)],
        );
        let unopt = k.clone();
        let rpt = optimize_kernel(&mut k, 1, &[], "t".into());
        assert!(rpt.simplified >= 2);
        assert!(!k
            .ops
            .iter()
            .any(|o| matches!(o, Op::BinF { op: BinOp::Div, .. })));
        for x0 in [-7i64, 0, 1000] {
            let a = run(&k, &[x0], 8);
            let b = run(&unopt, &[x0], 8);
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn unsafe_rewrites_not_applied() {
        // x + 0.0 must NOT fold to x (x = -0.0 ⇒ +0.0).
        let mut k = Kernel::new(
            vec![cf(0, -0.0), cf(1, 0.0), bin(BinOp::Add, 2, 0, 1)],
            vec![RegId(2)],
        );
        optimize_kernel(&mut k, 1, &[], "t".into());
        // Folds (both const) — result must be +0.0, not -0.0.
        let out = run(&k, &[0], 1);
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn mask_simplification() {
        // (x >= 0) & 1 → the compare; ¬¬m → m
        let mut k = Kernel::new(
            vec![
                coord(0, 0),
                cf(1, 0.0),
                Op::CmpMask {
                    op: CmpOp::Ge,
                    dst: RegId(2),
                    a: RegId(0),
                    b: RegId(1),
                },
                cf(3, 1.0),
                Op::MaskAnd {
                    dst: RegId(4),
                    a: RegId(2),
                    b: RegId(3),
                },
                Op::MaskNot {
                    dst: RegId(5),
                    a: RegId(4),
                },
                Op::MaskNot {
                    dst: RegId(6),
                    a: RegId(5),
                },
            ],
            vec![RegId(6)],
        );
        let unopt = k.clone();
        let rpt = optimize_kernel(&mut k, 1, &[], "t".into());
        assert!(rpt.simplified >= 2);
        // The double-negated conjunction collapses to the compare itself.
        assert_eq!(k.ops.len(), 3);
        assert_eq!(run(&k, &[-2], 5), run(&unopt, &[-2], 5));
    }

    #[test]
    fn cse_merges_duplicates() {
        let mut k = Kernel::new(
            vec![coord(0, 0), coord(1, 0), bin(BinOp::Add, 2, 0, 1)],
            vec![RegId(2)],
        );
        let rpt = optimize_kernel(&mut k, 1, &[], "t".into());
        assert!(rpt.simplified >= 1);
        assert_eq!(k.ops.len(), 2);
    }

    #[test]
    fn compaction_renumbers_densely() {
        let mut k = Kernel::new(
            vec![cf(5, 2.0), coord(9, 0), bin(BinOp::Mul, 11, 5, 9)],
            vec![RegId(11)],
        );
        optimize_kernel(&mut k, 1, &[], "t".into());
        assert_eq!(k.nregs, 3);
        assert_eq!(k.outs[0], RegId(2));
    }

    #[test]
    fn dep_masks_track_dimensions() {
        // r0 = coord(0) (outer), r1 = coord(1) (inner), r2 = r0+r1
        let mut k = Kernel::new(
            vec![coord(0, 0), coord(1, 1), bin(BinOp::Add, 2, 0, 1)],
            vec![RegId(2)],
        );
        let rpt = optimize_kernel(&mut k, 2, &[], "t".into());
        assert_eq!(k.dep[0], 0b01);
        assert_eq!(k.dep[1], 0b10);
        assert_eq!(k.dep[2], 0b11);
        // one op (the outer coord) is uniform under the nominal inner axis
        assert_eq!(rpt.uniform_ops, 1);
    }

    #[test]
    fn load_histogram_reported() {
        let mut k = Kernel::new(
            vec![load(0, vec![affine(0, 1, 0, 1), affine(1, 1, -1, 1)])],
            vec![RegId(0)],
        );
        let rpt = optimize_kernel(&mut k, 2, &[], "t".into());
        assert_eq!(rpt.loads.contiguous, 1);
        assert_eq!(rpt.loads.total(), 1);
    }
}
