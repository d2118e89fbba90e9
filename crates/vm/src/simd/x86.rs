//! x86-64 chunk loops: 256-bit AVX2 and 128-bit SSE2 variants.
//!
//! Every function here is `#[target_feature]`-gated and reached only via
//! the dispatch wrappers in [`super`], which guarantee the feature was
//! runtime-detected. Register operands (`&[f32; CHUNK]`) live inside
//! [`super::Lanes`] (64-byte aligned), so in-register loops use aligned
//! loads/stores; buffer-side stores use unaligned accesses.
//!
//! # Bit-exactness notes (verified against the op table of `polymage_ir`,
//! which the scalar tails call)
//!
//! * `min`/`max`: `minps`/`maxps` are asymmetric — on NaN or `(±0, ∓0)`
//!   they return the *second* operand. Rust's `f32::min(a, b)` returns `b`
//!   when `a` is NaN, otherwise behaves like `minps(b, a)` (second operand
//!   `a` wins ties, NaN `b` yields `a`). So the exact form is
//!   `blend(minps(b, a), b, isnan(a))`, and symmetrically for `max`.
//! * round-half-away-from-zero (`f32::round`): computed as
//!   `trunc(|x|) + (frac ≥ 0.5)` with the sign bit reapplied, valid for
//!   `|x| < 2²³` where `cvttps` is exact. Lanes with `|x| ≥ 2²³` (already
//!   integral) *and* NaN lanes instead take `x + 0.0`, which is bit-exact
//!   for every finite/infinite value in that range (no signed zeros occur
//!   there) and quiets signaling NaNs exactly like `roundf` does.
//! * comparisons: ordered predicates (`LT_OQ`, …) except `NEQ_UQ` for `!=`
//!   match Rust's `<`/`<=`/`==`/`!=` on NaN; `>`/`>=` swap operands.
//! * clamp: two `select`s (`v < lo → lo`, then `> hi → hi`) reproduce
//!   `f32::clamp` including NaN passthrough and `-0.0 < 0.0 == false`.
//! * No FMA is ever emitted: multiplies and adds are separate intrinsics.

use crate::eval::CHUNK;
use polymage_ir::{round_ties_away, store_convert, BinOp, CmpOp};
use std::arch::x86_64::*;

// ---------------------------------------------------------------------------
// AVX2 (8 lanes)
// ---------------------------------------------------------------------------

/// Rust `x.min(y)` semantics, 8 lanes. See module docs.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn min8(x: __m256, y: __m256) -> __m256 {
    let m = _mm256_min_ps(y, x);
    let xnan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(m, y, xnan)
}

/// Rust `x.max(y)` semantics, 8 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn max8(x: __m256, y: __m256) -> __m256 {
    let m = _mm256_max_ps(y, x);
    let xnan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(m, y, xnan)
}

/// `f32::round` (ties away from zero) semantics, 8 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round8(x: __m256) -> __m256 {
    let sign_mask = _mm256_set1_ps(-0.0);
    let abs = _mm256_andnot_ps(sign_mask, x);
    // !(|x| < 2^23): true for already-integral magnitudes, infinities, NaN.
    let big = _mm256_cmp_ps::<_CMP_NLT_UQ>(abs, _mm256_set1_ps(8388608.0));
    let tr = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(abs));
    let frac = _mm256_sub_ps(abs, tr);
    let half = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    let rounded = _mm256_add_ps(tr, _mm256_and_ps(half, _mm256_set1_ps(1.0)));
    let signed = _mm256_or_ps(rounded, _mm256_and_ps(sign_mask, x));
    // `x + 0.0` is bit-exact for big lanes and quiets sNaN like `roundf`.
    let quieted = _mm256_add_ps(x, _mm256_set1_ps(0.0));
    _mm256_blendv_ps(signed, quieted, big)
}

/// `f32::clamp(v, lo, hi)` semantics, 8 lanes (NaN passes through).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn clamp8(v: __m256, lo: __m256, hi: __m256) -> __m256 {
    let below = _mm256_cmp_ps::<_CMP_LT_OQ>(v, lo);
    let c = _mm256_blendv_ps(v, lo, below);
    let above = _mm256_cmp_ps::<_CMP_GT_OQ>(c, hi);
    _mm256_blendv_ps(c, hi, above)
}

/// Lane-exact `BinOp` over register chunks (Mod/Pow never dispatched here).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn bin_avx2(
    op: BinOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    macro_rules! lanes {
        ($ins:path) => {{
            let mut i = 0;
            while i < n {
                let r = $ins(_mm256_load_ps(ap.add(i)), _mm256_load_ps(bp.add(i)));
                _mm256_store_ps(dp.add(i), r);
                i += 8;
            }
        }};
    }
    match op {
        BinOp::Add => lanes!(_mm256_add_ps),
        BinOp::Sub => lanes!(_mm256_sub_ps),
        BinOp::Mul => lanes!(_mm256_mul_ps),
        BinOp::Div => lanes!(_mm256_div_ps),
        BinOp::Min => lanes!(min8),
        BinOp::Max => lanes!(max8),
        BinOp::Mod | BinOp::Pow => debug_assert!(false, "Mod/Pow are scalar-only"),
    }
    for i in n..len {
        d[i] = op.eval(a[i], b[i]);
    }
}

/// Comparison masks (1.0 / 0.0) over register chunks.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn cmp_avx2(
    op: CmpOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    let one = _mm256_set1_ps(1.0);
    macro_rules! lanes {
        ($x:expr, $y:expr, $p:ident) => {{
            let mut i = 0;
            while i < n {
                let r = _mm256_cmp_ps::<$p>(_mm256_load_ps($x.add(i)), _mm256_load_ps($y.add(i)));
                _mm256_store_ps(dp.add(i), _mm256_and_ps(r, one));
                i += 8;
            }
        }};
    }
    match op {
        CmpOp::Lt => lanes!(ap, bp, _CMP_LT_OQ),
        CmpOp::Le => lanes!(ap, bp, _CMP_LE_OQ),
        CmpOp::Gt => lanes!(bp, ap, _CMP_LT_OQ),
        CmpOp::Ge => lanes!(bp, ap, _CMP_LE_OQ),
        CmpOp::Eq => lanes!(ap, bp, _CMP_EQ_OQ),
        CmpOp::Ne => lanes!(ap, bp, _CMP_NEQ_UQ),
    }
    for i in n..len {
        d[i] = op.mask(a[i], b[i]);
    }
}

/// Mask negation `d = 1.0 − a`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn not_avx2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !7;
    let one = _mm256_set1_ps(1.0);
    let mut i = 0;
    while i < n {
        _mm256_store_ps(
            d.as_mut_ptr().add(i),
            _mm256_sub_ps(one, _mm256_load_ps(a.as_ptr().add(i))),
        );
        i += 8;
    }
    for i in n..len {
        d[i] = 1.0 - a[i];
    }
}

/// Lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn select_avx2(
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let vm = _mm256_load_ps(m.as_ptr().add(i));
        let va = _mm256_load_ps(a.as_ptr().add(i));
        let vb = _mm256_load_ps(b.as_ptr().add(i));
        // NaN != 0.0 is true, -0.0 != 0.0 is false — matches the scalar test.
        let take_a = _mm256_cmp_ps::<_CMP_NEQ_UQ>(vm, zero);
        _mm256_store_ps(d.as_mut_ptr().add(i), _mm256_blendv_ps(vb, va, take_a));
        i += 8;
    }
    for i in n..len {
        d[i] = if m[i] != 0.0 { a[i] } else { b[i] };
    }
}

/// `CastRound`: round half away from zero.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn round_avx2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !7;
    let mut i = 0;
    while i < n {
        _mm256_store_ps(
            d.as_mut_ptr().add(i),
            round8(_mm256_load_ps(a.as_ptr().add(i))),
        );
        i += 8;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i]);
    }
}

/// `CastSat`: clamp to `[lo, hi]`, then round half away from zero.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn sat_avx2(
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) {
    let n = len & !7;
    let vlo = _mm256_set1_ps(lo);
    let vhi = _mm256_set1_ps(hi);
    let mut i = 0;
    while i < n {
        let c = clamp8(_mm256_load_ps(a.as_ptr().add(i)), vlo, vhi);
        _mm256_store_ps(d.as_mut_ptr().add(i), round8(c));
        i += 8;
    }
    for i in n..len {
        d[i] = store_convert(a[i], Some((lo, hi)), true);
    }
}

/// Chunk store with optional saturation/rounding into an output buffer
/// slice (unaligned destination).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn store_avx2(
    dst: &mut [f32],
    src: &[f32],
    sat: Option<(f32, f32)>,
    round: bool,
) {
    let len = dst.len().min(src.len());
    let n = len & !7;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    match (sat, round) {
        (Some((lo, hi)), true) => {
            let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp8(_mm256_loadu_ps(sp.add(i)), vlo, vhi);
                _mm256_storeu_ps(dp.add(i), round8(c));
                i += 8;
            }
        }
        (Some((lo, hi)), false) => {
            let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp8(_mm256_loadu_ps(sp.add(i)), vlo, vhi);
                _mm256_storeu_ps(dp.add(i), c);
                i += 8;
            }
        }
        (None, true) => {
            let mut i = 0;
            while i < n {
                _mm256_storeu_ps(dp.add(i), round8(_mm256_loadu_ps(sp.add(i))));
                i += 8;
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

/// Constant-stride load via hardware gather: `d[i] = data[start + i·step]`.
/// The caller has proven every index in-bounds and within `i32` range, so
/// the gather reads exactly the elements the scalar loop would.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn strided_avx2(
    d: &mut [f32; CHUNK],
    data: &[f32],
    start: i64,
    step: i64,
    len: usize,
) {
    let n = len & !7;
    let base = data.as_ptr();
    let vstep = _mm256_set1_epi32(step as i32);
    let mut idx = _mm256_add_epi32(
        _mm256_set1_epi32(start as i32),
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), vstep),
    );
    // The post-loop advance may wrap in lanes past the end; those indices
    // are never used for a gather.
    let advance = _mm256_slli_epi32::<3>(vstep);
    let mut i = 0;
    while i < n {
        let v = _mm256_i32gather_ps::<4>(base, idx);
        _mm256_store_ps(d.as_mut_ptr().add(i), v);
        idx = _mm256_add_epi32(idx, advance);
        i += 8;
    }
    for i in n..len {
        d[i] = data[(start + i as i64 * step) as usize];
    }
}

/// The register term of the index pipeline, 8 lanes at a time: see
/// [`super::index_from_f32`]. `acc` lives on the caller's stack, so its
/// accesses are unaligned.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn index_avx2(
    acc: &mut [i32; CHUNK],
    src: &[f32; CHUNK],
    lo: i32,
    hi: i32,
    stride: i32,
    len: usize,
) {
    let n = len & !7;
    let (vlo, vhi) = (_mm256_set1_ps(lo as f32), _mm256_set1_ps(hi as f32));
    let (vorg, vstride) = (_mm256_set1_epi32(lo), _mm256_set1_epi32(stride));
    let (half, neg_half) = (_mm256_set1_ps(0.5), _mm256_set1_ps(-0.5));
    let mut i = 0;
    while i < n {
        let x = _mm256_load_ps(src.as_ptr().add(i));
        // NaN → +0.0, then a NaN-free clamp (operand order is irrelevant).
        let x = _mm256_and_ps(x, _mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
        let c = _mm256_min_ps(_mm256_max_ps(x, vlo), vhi);
        // |c| ≤ 2²⁴: truncation and the fraction are exact.
        let t = _mm256_cvttps_epi32(c);
        let frac = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
        // Compare masks are −1 per true lane: subtracting one adds 1.
        let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, half));
        let down = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(frac, neg_half));
        let idx = _mm256_add_epi32(_mm256_sub_epi32(t, up), down);
        let term = _mm256_mullo_epi32(_mm256_sub_epi32(idx, vorg), vstride);
        let ap = acc.as_mut_ptr().add(i) as *mut __m256i;
        _mm256_storeu_si256(ap, _mm256_add_epi32(_mm256_loadu_si256(ap), term));
        i += 8;
    }
    super::index_tail(acc, src, lo, hi, stride, n, len);
}

/// Indexed load via hardware gather: `d[i] = data[off[i]]`. Offsets
/// outside `data` are masked out of the gather (their lanes load nothing)
/// and make the result `false`; see [`super::gather`].
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gather_avx2(
    d: &mut [f32; CHUNK],
    data: &[f32],
    off: &[i32; CHUNK],
    len: usize,
) -> bool {
    let n = len & !7;
    let base = data.as_ptr();
    // In range ⇔ −1 < off < min(data.len(), i32::MAX).
    let bound = _mm256_set1_epi32(data.len().min(i32::MAX as usize) as i32);
    let minus_one = _mm256_set1_epi32(-1);
    let mut all = minus_one;
    let mut i = 0;
    while i < n {
        let idx = _mm256_loadu_si256(off.as_ptr().add(i) as *const __m256i);
        let ok = _mm256_and_si256(
            _mm256_cmpgt_epi32(bound, idx),
            _mm256_cmpgt_epi32(idx, minus_one),
        );
        let v =
            _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), base, idx, _mm256_castsi256_ps(ok));
        _mm256_store_ps(d.as_mut_ptr().add(i), v);
        all = _mm256_and_si256(all, ok);
        i += 8;
    }
    let mut ok = _mm256_movemask_ps(_mm256_castsi256_ps(all)) == 0xff;
    for i in n..len {
        match data.get(off[i] as usize) {
            Some(&v) => d[i] = v,
            None => ok = false,
        }
    }
    ok
}

// ---------------------------------------------------------------------------
// SSE2 (4 lanes). Same sequences at 128-bit width; SSE2 has no `blendv`
// (that is SSE4.1), so selects use and/andnot/or on full-width masks.
// ---------------------------------------------------------------------------

/// Bitwise select: `mask ? t : f` (mask lanes are all-ones or all-zeros).
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn sel4(mask: __m128, t: __m128, f: __m128) -> __m128 {
    _mm_or_ps(_mm_and_ps(mask, t), _mm_andnot_ps(mask, f))
}

/// Rust `x.min(y)` semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn min4(x: __m128, y: __m128) -> __m128 {
    let m = _mm_min_ps(y, x);
    let xnan = _mm_cmpunord_ps(x, x);
    sel4(xnan, y, m)
}

/// Rust `x.max(y)` semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn max4(x: __m128, y: __m128) -> __m128 {
    let m = _mm_max_ps(y, x);
    let xnan = _mm_cmpunord_ps(x, x);
    sel4(xnan, y, m)
}

/// `f32::round` (ties away from zero) semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn round4(x: __m128) -> __m128 {
    let sign_mask = _mm_set1_ps(-0.0);
    let abs = _mm_andnot_ps(sign_mask, x);
    let big = _mm_cmpnlt_ps(abs, _mm_set1_ps(8388608.0));
    let tr = _mm_cvtepi32_ps(_mm_cvttps_epi32(abs));
    let frac = _mm_sub_ps(abs, tr);
    let half = _mm_cmpge_ps(frac, _mm_set1_ps(0.5));
    let rounded = _mm_add_ps(tr, _mm_and_ps(half, _mm_set1_ps(1.0)));
    let signed = _mm_or_ps(rounded, _mm_and_ps(sign_mask, x));
    let quieted = _mm_add_ps(x, _mm_set1_ps(0.0));
    sel4(big, quieted, signed)
}

/// `f32::clamp(v, lo, hi)` semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn clamp4(v: __m128, lo: __m128, hi: __m128) -> __m128 {
    let below = _mm_cmplt_ps(v, lo);
    let c = sel4(below, lo, v);
    let above = _mm_cmpgt_ps(c, hi);
    sel4(above, hi, c)
}

/// Lane-exact `BinOp` over register chunks (Mod/Pow never dispatched here).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn bin_sse2(
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
                let r = $ins(_mm_load_ps(ap.add(i)), _mm_load_ps(bp.add(i)));
                _mm_store_ps(dp.add(i), r);
                i += 4;
            }
        }};
    }
    match op {
        BinOp::Add => lanes!(_mm_add_ps),
        BinOp::Sub => lanes!(_mm_sub_ps),
        BinOp::Mul => lanes!(_mm_mul_ps),
        BinOp::Div => lanes!(_mm_div_ps),
        BinOp::Min => lanes!(min4),
        BinOp::Max => lanes!(max4),
        BinOp::Mod | BinOp::Pow => debug_assert!(false, "Mod/Pow are scalar-only"),
    }
    for i in n..len {
        d[i] = op.eval(a[i], b[i]);
    }
}

/// Comparison masks (1.0 / 0.0) over register chunks.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn cmp_sse2(
    op: CmpOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    let one = _mm_set1_ps(1.0);
    macro_rules! lanes {
        ($x:expr, $y:expr, $ins:path) => {{
            let mut i = 0;
            while i < n {
                let r = $ins(_mm_load_ps($x.add(i)), _mm_load_ps($y.add(i)));
                _mm_store_ps(dp.add(i), _mm_and_ps(r, one));
                i += 4;
            }
        }};
    }
    match op {
        CmpOp::Lt => lanes!(ap, bp, _mm_cmplt_ps),
        CmpOp::Le => lanes!(ap, bp, _mm_cmple_ps),
        CmpOp::Gt => lanes!(bp, ap, _mm_cmplt_ps),
        CmpOp::Ge => lanes!(bp, ap, _mm_cmple_ps),
        CmpOp::Eq => lanes!(ap, bp, _mm_cmpeq_ps),
        CmpOp::Ne => lanes!(ap, bp, _mm_cmpneq_ps),
    }
    for i in n..len {
        d[i] = op.mask(a[i], b[i]);
    }
}

/// Mask negation `d = 1.0 − a`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn not_sse2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !3;
    let one = _mm_set1_ps(1.0);
    let mut i = 0;
    while i < n {
        _mm_store_ps(
            d.as_mut_ptr().add(i),
            _mm_sub_ps(one, _mm_load_ps(a.as_ptr().add(i))),
        );
        i += 4;
    }
    for i in n..len {
        d[i] = 1.0 - a[i];
    }
}

/// Lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn select_sse2(
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let zero = _mm_setzero_ps();
    let mut i = 0;
    while i < n {
        let vm = _mm_load_ps(m.as_ptr().add(i));
        let va = _mm_load_ps(a.as_ptr().add(i));
        let vb = _mm_load_ps(b.as_ptr().add(i));
        let take_a = _mm_cmpneq_ps(vm, zero);
        _mm_store_ps(d.as_mut_ptr().add(i), sel4(take_a, va, vb));
        i += 4;
    }
    for i in n..len {
        d[i] = if m[i] != 0.0 { a[i] } else { b[i] };
    }
}

/// `CastRound`: round half away from zero.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn round_sse2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !3;
    let mut i = 0;
    while i < n {
        _mm_store_ps(
            d.as_mut_ptr().add(i),
            round4(_mm_load_ps(a.as_ptr().add(i))),
        );
        i += 4;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i]);
    }
}

/// `CastSat`: clamp to `[lo, hi]`, then round half away from zero.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn sat_sse2(
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) {
    let n = len & !3;
    let vlo = _mm_set1_ps(lo);
    let vhi = _mm_set1_ps(hi);
    let mut i = 0;
    while i < n {
        let c = clamp4(_mm_load_ps(a.as_ptr().add(i)), vlo, vhi);
        _mm_store_ps(d.as_mut_ptr().add(i), round4(c));
        i += 4;
    }
    for i in n..len {
        d[i] = store_convert(a[i], Some((lo, hi)), true);
    }
}

/// Chunk store with optional saturation/rounding into an output buffer
/// slice (unaligned destination).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn store_sse2(
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
            let (vlo, vhi) = (_mm_set1_ps(lo), _mm_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp4(_mm_loadu_ps(sp.add(i)), vlo, vhi);
                _mm_storeu_ps(dp.add(i), round4(c));
                i += 4;
            }
        }
        (Some((lo, hi)), false) => {
            let (vlo, vhi) = (_mm_set1_ps(lo), _mm_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp4(_mm_loadu_ps(sp.add(i)), vlo, vhi);
                _mm_storeu_ps(dp.add(i), c);
                i += 4;
            }
        }
        (None, true) => {
            let mut i = 0;
            while i < n {
                _mm_storeu_ps(dp.add(i), round4(_mm_loadu_ps(sp.add(i))));
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

/// Low 32 bits of the lane products (SSE2 has no `pmulld`): the even and
/// odd lanes go through `pmuludq` separately — the low half of a product
/// does not depend on signedness — and are interleaved back.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn mullo4(a: __m128i, b: __m128i) -> __m128i {
    let even = _mm_mul_epu32(a, b);
    let odd = _mm_mul_epu32(_mm_srli_si128::<4>(a), _mm_srli_si128::<4>(b));
    _mm_unpacklo_epi32(
        _mm_shuffle_epi32::<0b00_00_10_00>(even),
        _mm_shuffle_epi32::<0b00_00_10_00>(odd),
    )
}

/// The register term of the index pipeline, 4 lanes at a time: the same
/// sequence as [`index_avx2`].
#[target_feature(enable = "sse2")]
pub(super) unsafe fn index_sse2(
    acc: &mut [i32; CHUNK],
    src: &[f32; CHUNK],
    lo: i32,
    hi: i32,
    stride: i32,
    len: usize,
) {
    let n = len & !3;
    let (vlo, vhi) = (_mm_set1_ps(lo as f32), _mm_set1_ps(hi as f32));
    let (vorg, vstride) = (_mm_set1_epi32(lo), _mm_set1_epi32(stride));
    let (half, neg_half) = (_mm_set1_ps(0.5), _mm_set1_ps(-0.5));
    let mut i = 0;
    while i < n {
        let x = _mm_load_ps(src.as_ptr().add(i));
        let x = _mm_and_ps(x, _mm_cmpord_ps(x, x));
        let c = _mm_min_ps(_mm_max_ps(x, vlo), vhi);
        let t = _mm_cvttps_epi32(c);
        let frac = _mm_sub_ps(c, _mm_cvtepi32_ps(t));
        let up = _mm_castps_si128(_mm_cmpge_ps(frac, half));
        let down = _mm_castps_si128(_mm_cmple_ps(frac, neg_half));
        let idx = _mm_add_epi32(_mm_sub_epi32(t, up), down);
        let term = mullo4(_mm_sub_epi32(idx, vorg), vstride);
        let ap = acc.as_mut_ptr().add(i) as *mut __m128i;
        _mm_storeu_si128(ap, _mm_add_epi32(_mm_loadu_si128(ap), term));
        i += 4;
    }
    super::index_tail(acc, src, lo, hi, stride, n, len);
}
