//! Load classification: specialized access forms for [`crate::Op::Load`].
//!
//! The shape of a load is resolved into a [`ResolvedLoad`] **once per
//! row** (cached by the register file with the uniform preamble). The base
//! offset from all non-varying dimensions is folded ahead of time, and
//! what remains takes one of four forms:
//!
//! - **broadcast** — the plan is chunk-invariant; the value is computed in
//!   the scalar preamble ([`ResolvedLoad::Uniform`]);
//! - **contiguous** — unit-stride along the chunk axis (`q == 1, m == 1`,
//!   innermost buffer dimension): a straight `copy_from_slice`;
//! - **ramp** — one affine dimension varies with a constant non-unit
//!   stride (`m == 1`): a strided walk, hardware-gathered on AVX2;
//! - **indexed** — everything else goes through one
//!   [`IndexPlan`](crate::index::IndexPlan): a floor-divided index, several
//!   dimensions varying together (diagonal accesses like `g(x, x)`),
//!   data-dependent register indices, or any mix.
//!
//! For reporting, ramps and indexed accesses with affine terms only are
//! *strided*; an indexed access with a register term is a *gather*.
//!
//! [`classify`] is the compile-time counterpart used for reporting: it tags
//! each load with the class it will take under the nominal chunk axis (the
//! innermost loop dimension).

use crate::eval::{ChunkCtx, RegFile, CHUNK};
use crate::index::{AffTerm, IndexPlan, RegTerm};
use crate::{BufId, IdxPlan, RegId};

/// Compile-time access class of one load (under the nominal chunk axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadClass {
    /// Chunk-invariant plan; one element, broadcast.
    Broadcast,
    /// Unit-stride along the chunk axis — slice copy.
    Contiguous,
    /// Constant (non-unit) stride or floor-divided index along the chunk
    /// axis, including diagonal multi-dimension accesses.
    Strided,
    /// Data-dependent register index on at least one dimension.
    Gather,
}

/// Histogram of load classes across a kernel or program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadHistogram {
    /// Chunk-invariant loads.
    pub broadcast: usize,
    /// Unit-stride slice copies.
    pub contiguous: usize,
    /// Constant-stride walks.
    pub strided: usize,
    /// Data-dependent gathers.
    pub gather: usize,
}

impl LoadHistogram {
    /// Tallies one load.
    pub fn add(&mut self, class: LoadClass) {
        match class {
            LoadClass::Broadcast => self.broadcast += 1,
            LoadClass::Contiguous => self.contiguous += 1,
            LoadClass::Strided => self.strided += 1,
            LoadClass::Gather => self.gather += 1,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LoadHistogram) {
        self.broadcast += other.broadcast;
        self.contiguous += other.contiguous;
        self.strided += other.strided;
        self.gather += other.gather;
    }

    /// Total loads tallied.
    pub fn total(&self) -> usize {
        self.broadcast + self.contiguous + self.strided + self.gather
    }
}

impl std::fmt::Display for LoadHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "contig {} / broadcast {} / strided {} / gather {}",
            self.contiguous, self.broadcast, self.strided, self.gather
        )
    }
}

/// Classifies a load plan at compile time, given the per-register
/// dimension-dependence masks and the nominal chunk axis `inner`.
///
/// The runtime chunk axis is chosen per region, so this is the *expected*
/// class (the innermost dimension is the overwhelmingly common choice); the
/// evaluator re-resolves per row and always takes the correct loop.
pub(crate) fn classify(plan: &[IdxPlan], dep: &[u32], inner: usize) -> LoadClass {
    let bit = 1u32 << inner.min(31);
    let mut has_reg = false;
    let mut varying = false;
    let mut inner_affine: Vec<(usize, i64, i64)> = Vec::new(); // (plan dim, q, m)
    for (d, p) in plan.iter().enumerate() {
        match *p {
            IdxPlan::Affine { dim, q, .. } if dim == Some(inner) && q != 0 => {
                varying = true;
                if let IdxPlan::Affine { q, m, .. } = *p {
                    inner_affine.push((d, q, m));
                }
            }
            IdxPlan::Affine { .. } => {}
            IdxPlan::Reg(r) => {
                has_reg = true;
                if dep.get(r.0 as usize).copied().unwrap_or(0) & bit != 0 {
                    varying = true;
                }
            }
        }
    }
    if !varying {
        return LoadClass::Broadcast;
    }
    if has_reg {
        return LoadClass::Gather;
    }
    match inner_affine.as_slice() {
        // Unit stride iff the varying dimension is the innermost buffer
        // dimension (row-major ⇒ stride 1) with q == 1, m == 1.
        [(d, 1, 1)] if *d == plan.len() - 1 => LoadClass::Contiguous,
        _ => LoadClass::Strided,
    }
}

/// A load plan resolved against concrete views and a concrete chunk axis,
/// valid for one row (fixed outer coordinates).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResolvedLoad {
    /// Chunk-invariant: one element, read by [`load_scalar`].
    Uniform,
    /// Unit stride along the chunk axis: flat index = `shift + x`.
    Contig {
        /// Precomputed `base + o − origin` (add the chunk-axis coordinate).
        shift: i64,
    },
    /// One affine dimension varies, without floor division: flat index =
    /// `shift + x·step`.
    Ramp {
        /// Precomputed `base + (o − origin)·stride`.
        shift: i64,
        /// `q·stride`.
        step: i64,
    },
    /// Everything else — floor-divided, diagonal, data-dependent —
    /// addressed through the [`IndexPlan`] at this position of the row's
    /// plan list.
    Indexed(usize),
}

impl ResolvedLoad {
    /// The access class this resolved form corresponds to (used by the
    /// runtime resolution counters; matches [`classify`]'s taxonomy, with
    /// diagonal accesses tallied as strided).
    pub(crate) fn class(&self, plans: &[IndexPlan]) -> LoadClass {
        match *self {
            ResolvedLoad::Uniform => LoadClass::Broadcast,
            ResolvedLoad::Contig { .. } => LoadClass::Contiguous,
            ResolvedLoad::Indexed(i) if plans[i].has_reg() => LoadClass::Gather,
            ResolvedLoad::Ramp { .. } | ResolvedLoad::Indexed(_) => LoadClass::Strided,
        }
    }
}

/// Whether dimension plan `p` varies along chunk axis `inner`.
fn varies(p: &IdxPlan, inner: usize) -> bool {
    match *p {
        IdxPlan::Affine { dim, q, .. } => dim == Some(inner) && q != 0,
        IdxPlan::Reg(_) => true,
    }
}

/// Resolves a load plan against the current views and chunk axis. Register
/// dimensions count as varying (callers that know a register to be uniform
/// do not come here); an [`IndexPlan`], when one is needed, is appended to
/// `plans`.
pub(crate) fn resolve_load(
    ctx: &ChunkCtx<'_>,
    buf: BufId,
    plan: &[IdxPlan],
    plans: &mut Vec<IndexPlan>,
) -> ResolvedLoad {
    let view = ctx.bufs[buf.0]
        .as_ref()
        .unwrap_or_else(|| panic!("load from unresolved buffer {buf:?}"));
    debug_assert_eq!(plan.len(), view.sizes.len());
    let mut base = 0i64;
    let mut nvarying = 0usize;
    // `(shift, step)` of a varying dimension without floor division.
    let mut ramp: Option<(i64, i64)> = None;
    for (d, p) in plan.iter().enumerate() {
        if varies(p, ctx.inner) {
            nvarying += 1;
            if let IdxPlan::Affine { q, o, m: 1, .. } = *p {
                ramp = Some(((o - view.origin[d]) * view.strides[d], q * view.strides[d]));
            }
        } else if let IdxPlan::Affine { dim, q, o, m } = *p {
            let coord = dim.map_or(0, |dd| ctx.coords[dd]);
            let idx = (q * coord + o).div_euclid(m);
            debug_assert!(
                idx >= view.origin[d] && idx < view.origin[d] + view.sizes[d],
                "affine index {idx} out of buffer range on dim {d} \
                 (origin {}, size {})",
                view.origin[d],
                view.sizes[d]
            );
            base += (idx - view.origin[d]).clamp(0, view.sizes[d] - 1) * view.strides[d];
        }
    }
    match (nvarying, ramp) {
        (0, _) => return ResolvedLoad::Uniform,
        (1, Some((shift, 1))) => {
            return ResolvedLoad::Contig {
                shift: base + shift,
            }
        }
        (1, Some((shift, step))) => {
            return ResolvedLoad::Ramp {
                shift: base + shift,
                step,
            }
        }
        _ => {}
    }
    plans.push(IndexPlan::new(base));
    let ip = plans.last_mut().expect("just pushed");
    for (d, p) in plan.iter().enumerate() {
        match *p {
            IdxPlan::Affine { q, o, m, .. } if varies(p, ctx.inner) => ip.push_aff(AffTerm {
                q,
                o,
                m,
                stride: view.strides[d],
                org: view.origin[d],
            }),
            IdxPlan::Affine { .. } => {}
            IdxPlan::Reg(reg) => ip.push_reg(RegTerm {
                org: view.origin[d],
                size: view.sizes[d],
                stride: view.strides[d],
                reg,
            }),
        }
    }
    ResolvedLoad::Indexed(plans.len() - 1)
}

/// Executes one lane-varying load of `plan` from `buf` through its resolved
/// form (`plans` is the list [`resolve_load`] appended to).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_resolved(
    ctx: &ChunkCtx<'_>,
    regs: &mut RegFile,
    dst: RegId,
    buf: BufId,
    plan: &[IdxPlan],
    r: ResolvedLoad,
    plans: &[IndexPlan],
    len: usize,
) {
    let view = ctx.bufs[buf.0]
        .as_ref()
        .unwrap_or_else(|| panic!("load from unresolved buffer {buf:?}"));
    let x0 = ctx.coords[ctx.inner];
    let d = dst.0 as usize;
    let lvl = regs.simd;
    let ip = match r {
        ResolvedLoad::Uniform => {
            // Varying by its dependence mask only through a coordinate that
            // shares the chunk axis's bit (31 and beyond): one element.
            let v = load_scalar(ctx, regs, buf, plan);
            regs.regs[d][..len].fill(v);
            return;
        }
        ResolvedLoad::Contig { shift } => {
            let start = shift + x0;
            debug_assert!(start >= 0);
            let start = start as usize;
            regs.regs[d][..len].copy_from_slice(&view.data[start..start + len]);
            return;
        }
        ResolvedLoad::Ramp { shift, step } => {
            // No index arithmetic to speak of: a hardware gather over an
            // in-register ramp (AVX2), else the indexed loop.
            let start = shift + x0 * step;
            let dreg = &mut regs.regs[d];
            if !crate::simd::strided_load(lvl, dreg, view.data, start, step, len) {
                for (i, v) in dreg[..len].iter_mut().enumerate() {
                    *v = view.data[(start + i as i64 * step) as usize];
                }
            }
            regs.counters
                .count_indexed(lvl != crate::SimdLevel::Scalar, len);
            return;
        }
        ResolvedLoad::Indexed(i) => &plans[i],
    };
    let mut off = [0i32; CHUNK];
    let vector = ip.fill_offsets(lvl, &regs.regs, x0, len, view.data.len(), &mut off);
    regs.counters.count_indexed(vector, len);
    if vector {
        let dreg = &mut regs.regs[d];
        if !crate::simd::gather(lvl, dreg, view.data, &off, len) {
            for (v, &o) in dreg[..len].iter_mut().zip(&off) {
                *v = view.data[o as usize];
            }
        }
    } else {
        for i in 0..len {
            let flat = ip.offset_at(&regs.regs, x0 + i as i64, i);
            regs.regs[d][i] = view.data[flat as usize];
        }
    }
}

/// Scalar (lane-0) evaluation of a chunk-invariant load — the preamble
/// counterpart of [`exec_resolved`].
pub(crate) fn load_scalar(ctx: &ChunkCtx<'_>, regs: &RegFile, buf: BufId, plan: &[IdxPlan]) -> f32 {
    let view = ctx.bufs[buf.0]
        .as_ref()
        .unwrap_or_else(|| panic!("load from unresolved buffer {buf:?}"));
    debug_assert_eq!(plan.len(), view.sizes.len());
    let mut flat = 0i64;
    for (d, p) in plan.iter().enumerate() {
        match *p {
            IdxPlan::Affine { dim, q, o, m } => {
                let coord = dim.map_or(0, |dd| ctx.coords[dd]);
                let idx = (q * coord + o).div_euclid(m);
                debug_assert!(
                    idx >= view.origin[d] && idx < view.origin[d] + view.sizes[d],
                    "affine index {idx} out of buffer range on dim {d} \
                     (origin {}, size {})",
                    view.origin[d],
                    view.sizes[d]
                );
                flat += (idx - view.origin[d]).clamp(0, view.sizes[d] - 1) * view.strides[d];
            }
            IdxPlan::Reg(r) => {
                let raw = polymage_ir::index_convert(regs.regs[r.0 as usize][0]);
                let clamped = raw.clamp(view.origin[d], view.origin[d] + view.sizes[d] - 1);
                flat += (clamped - view.origin[d]) * view.strides[d];
            }
        }
    }
    view.data[flat as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_forms() {
        // dep: r0 uniform, r1 varies with dim 1
        let dep = [0u32, 0b10u32];
        let inner = 1usize;
        let contig = vec![
            IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            },
            IdxPlan::Affine {
                dim: Some(1),
                q: 1,
                o: -1,
                m: 1,
            },
        ];
        assert_eq!(classify(&contig, &dep, inner), LoadClass::Contiguous);
        let strided = vec![
            IdxPlan::Affine {
                dim: Some(1),
                q: 2,
                o: 0,
                m: 1,
            },
            IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            },
        ];
        assert_eq!(classify(&strided, &dep, inner), LoadClass::Strided);
        let bcast = vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: 0,
            m: 1,
        }];
        assert_eq!(classify(&bcast, &dep, inner), LoadClass::Broadcast);
        let uniform_gather = vec![IdxPlan::Reg(RegId(0))];
        assert_eq!(classify(&uniform_gather, &dep, inner), LoadClass::Broadcast);
        let gather = vec![IdxPlan::Reg(RegId(1))];
        assert_eq!(classify(&gather, &dep, inner), LoadClass::Gather);
    }

    #[test]
    fn histogram_tallies() {
        let mut h = LoadHistogram::default();
        h.add(LoadClass::Contiguous);
        h.add(LoadClass::Contiguous);
        h.add(LoadClass::Gather);
        h.add(LoadClass::Broadcast);
        assert_eq!(h.total(), 4);
        let mut h2 = LoadHistogram::default();
        h2.add(LoadClass::Strided);
        h.merge(&h2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.strided, 1);
    }
}
