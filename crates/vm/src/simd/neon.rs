//! aarch64 NEON chunk loops (4 lanes, baseline on every aarch64 CPU).
//!
//! Bit-exactness with the op table of `polymage_ir` (which the scalar
//! tails call) comes from same-instruction equivalence with its aarch64
//! *scalar* lowering rather than from emulating x86 semantics:
//!
//! * `f32::min`/`f32::max` lower to `fminnm`/`fmaxnm` on aarch64, and
//!   `vminnmq_f32`/`vmaxnmq_f32` are exactly the vector forms of those
//!   instructions — per-lane identical results by construction.
//! * `f32::round` lowers to `frinta` (round to integral, ties away);
//!   `vrndaq_f32` is the vector `frinta`.
//! * comparisons, clamp, and select are built from ordered compares and
//!   `bsl`, matching the scalar `<`/`>`/`!=` semantics on NaN and ±0.
//! * No fused multiply-add intrinsics are used anywhere.

use crate::eval::CHUNK;
use polymage_ir::{round_ties_away, store_convert, BinOp, CmpOp};
use std::arch::aarch64::*;

/// Mask (all-ones/all-zeros lanes) to a 1.0/0.0 float mask.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn mask_to_f32(m: uint32x4_t) -> float32x4_t {
    vreinterpretq_f32_u32(vandq_u32(m, vreinterpretq_u32_f32(vdupq_n_f32(1.0))))
}

/// `f32::clamp(v, lo, hi)` semantics (NaN passes through).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn clampq(v: float32x4_t, lo: float32x4_t, hi: float32x4_t) -> float32x4_t {
    let below = vcltq_f32(v, lo);
    let c = vbslq_f32(below, lo, v);
    let above = vcgtq_f32(c, hi);
    vbslq_f32(above, hi, c)
}

/// Lane-exact `BinOp` over register chunks (Mod/Pow never dispatched here).
#[target_feature(enable = "neon")]
pub(super) unsafe fn bin_neon(
    op: BinOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    macro_rules! lanes {
        ($ins:path) => {{
            let mut i = 0;
            while i < n {
                let r = $ins(vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
                vst1q_f32(dp.add(i), r);
                i += 4;
            }
        }};
    }
    match op {
        BinOp::Add => lanes!(vaddq_f32),
        BinOp::Sub => lanes!(vsubq_f32),
        BinOp::Mul => lanes!(vmulq_f32),
        BinOp::Div => lanes!(vdivq_f32),
        BinOp::Min => lanes!(vminnmq_f32),
        BinOp::Max => lanes!(vmaxnmq_f32),
        BinOp::Mod | BinOp::Pow => debug_assert!(false, "Mod/Pow are scalar-only"),
    }
    for i in n..len {
        d[i] = op.eval(a[i], b[i]);
    }
}

/// Comparison masks (1.0 / 0.0) over register chunks.
#[target_feature(enable = "neon")]
pub(super) unsafe fn cmp_neon(
    op: CmpOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    let mut i = 0;
    while i < n {
        let va = vld1q_f32(ap.add(i));
        let vb = vld1q_f32(bp.add(i));
        let m = match op {
            CmpOp::Lt => vcltq_f32(va, vb),
            CmpOp::Le => vcleq_f32(va, vb),
            CmpOp::Gt => vcltq_f32(vb, va),
            CmpOp::Ge => vcleq_f32(vb, va),
            CmpOp::Eq => vceqq_f32(va, vb),
            CmpOp::Ne => vmvnq_u32(vceqq_f32(va, vb)),
        };
        vst1q_f32(dp.add(i), mask_to_f32(m));
        i += 4;
    }
    for i in n..len {
        d[i] = op.mask(a[i], b[i]);
    }
}

/// Mask negation `d = 1.0 − a`.
#[target_feature(enable = "neon")]
pub(super) unsafe fn not_neon(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !3;
    let one = vdupq_n_f32(1.0);
    let mut i = 0;
    while i < n {
        vst1q_f32(
            d.as_mut_ptr().add(i),
            vsubq_f32(one, vld1q_f32(a.as_ptr().add(i))),
        );
        i += 4;
    }
    for i in n..len {
        d[i] = 1.0 - a[i];
    }
}

/// Lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[target_feature(enable = "neon")]
pub(super) unsafe fn select_neon(
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let zero = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n {
        let vm = vld1q_f32(m.as_ptr().add(i));
        let va = vld1q_f32(a.as_ptr().add(i));
        let vb = vld1q_f32(b.as_ptr().add(i));
        // NaN != 0.0 is true, -0.0 != 0.0 is false — matches the scalar test.
        let take_a = vmvnq_u32(vceqq_f32(vm, zero));
        vst1q_f32(d.as_mut_ptr().add(i), vbslq_f32(take_a, va, vb));
        i += 4;
    }
    for i in n..len {
        d[i] = if m[i] != 0.0 { a[i] } else { b[i] };
    }
}

/// `CastRound`: round half away from zero (`frinta`).
#[target_feature(enable = "neon")]
pub(super) unsafe fn round_neon(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !3;
    let mut i = 0;
    while i < n {
        vst1q_f32(
            d.as_mut_ptr().add(i),
            vrndaq_f32(vld1q_f32(a.as_ptr().add(i))),
        );
        i += 4;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i]);
    }
}

/// `CastSat`: clamp to `[lo, hi]`, then round half away from zero.
#[target_feature(enable = "neon")]
pub(super) unsafe fn sat_neon(
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) {
    let n = len & !3;
    let vlo = vdupq_n_f32(lo);
    let vhi = vdupq_n_f32(hi);
    let mut i = 0;
    while i < n {
        let c = clampq(vld1q_f32(a.as_ptr().add(i)), vlo, vhi);
        vst1q_f32(d.as_mut_ptr().add(i), vrndaq_f32(c));
        i += 4;
    }
    for i in n..len {
        d[i] = store_convert(a[i], Some((lo, hi)), true);
    }
}

/// Chunk store with optional saturation/rounding into an output buffer
/// slice.
#[target_feature(enable = "neon")]
pub(super) unsafe fn store_neon(
    dst: &mut [f32],
    src: &[f32],
    sat: Option<(f32, f32)>,
    round: bool,
) {
    let len = dst.len().min(src.len());
    let n = len & !3;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    match (sat, round) {
        (Some((lo, hi)), true) => {
            let (vlo, vhi) = (vdupq_n_f32(lo), vdupq_n_f32(hi));
            let mut i = 0;
            while i < n {
                let c = clampq(vld1q_f32(sp.add(i)), vlo, vhi);
                vst1q_f32(dp.add(i), vrndaq_f32(c));
                i += 4;
            }
        }
        (Some((lo, hi)), false) => {
            let (vlo, vhi) = (vdupq_n_f32(lo), vdupq_n_f32(hi));
            let mut i = 0;
            while i < n {
                vst1q_f32(dp.add(i), clampq(vld1q_f32(sp.add(i)), vlo, vhi));
                i += 4;
            }
        }
        (None, true) => {
            let mut i = 0;
            while i < n {
                vst1q_f32(dp.add(i), vrndaq_f32(vld1q_f32(sp.add(i))));
                i += 4;
            }
        }
        (None, false) => {
            dst.copy_from_slice(&src[..len]);
            return;
        }
    }
    for i in n..len {
        dst[i] = store_convert(src[i], sat, round);
    }
}

/// The register term of the index pipeline, 4 lanes at a time: see
/// [`super::index_from_f32`]. The same sequence as the x86 bodies —
/// NaN → 0, NaN-free clamp, truncating convert, exact-fraction
/// round-half-away — so the integers are identical.
#[target_feature(enable = "neon")]
pub(super) unsafe fn index_neon(
    acc: &mut [i32; CHUNK],
    src: &[f32; CHUNK],
    lo: i32,
    hi: i32,
    stride: i32,
    len: usize,
) {
    let n = len & !3;
    let (vlo, vhi) = (vdupq_n_f32(lo as f32), vdupq_n_f32(hi as f32));
    let (vorg, vstride) = (vdupq_n_s32(lo), vdupq_n_s32(stride));
    let (half, neg_half) = (vdupq_n_f32(0.5), vdupq_n_f32(-0.5));
    let mut i = 0;
    while i < n {
        let x = vld1q_f32(src.as_ptr().add(i));
        let x = vbslq_f32(vceqq_f32(x, x), x, vdupq_n_f32(0.0));
        let c = vminq_f32(vmaxq_f32(x, vlo), vhi);
        let t = vcvtq_s32_f32(c);
        let frac = vsubq_f32(c, vcvtq_f32_s32(t));
        // Compare masks are −1 per true lane: subtracting one adds 1.
        let up = vreinterpretq_s32_u32(vcgeq_f32(frac, half));
        let down = vreinterpretq_s32_u32(vcleq_f32(frac, neg_half));
        let idx = vaddq_s32(vsubq_s32(t, up), down);
        let term = vmulq_s32(vsubq_s32(idx, vorg), vstride);
        let ap = acc.as_mut_ptr().add(i);
        vst1q_s32(ap, vaddq_s32(vld1q_s32(ap), term));
        i += 4;
    }
    super::index_tail(acc, src, lo, hi, stride, n, len);
}
