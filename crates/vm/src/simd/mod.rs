//! Explicit SIMD backend for the chunk evaluator.
//!
//! The generated C++ of the original PolyMage leans on icc (`#pragma ivdep`)
//! to vectorize its inner loops; our interpreter-style VM instead evaluates
//! each kernel op as a Rust slice loop and hopes the autovectorizer keeps
//! up. Without `-C target-cpu`, that ceiling is SSE2-width arithmetic and
//! per-lane `roundf` libcalls for the cast ops. This module replaces the
//! hope with hand-written `std::arch` chunk loops, selected **once per
//! process** by runtime feature detection:
//!
//! - **AVX2** and **SSE2** on x86-64 (`#[target_feature]` functions reached
//!   only after `is_x86_feature_detected!` approves);
//! - **NEON** on aarch64 (baseline, always available);
//! - the existing scalar loops everywhere else — no `std::arch` path is
//!   compiled on other architectures, keeping every platform building.
//!
//! # Bit-exactness contract
//!
//! Every vector loop must produce **bit-identical** results to the op table
//! of `polymage_ir` (`BinOp::eval`, `CmpOp::mask`, `round_ties_away`,
//! `store_convert`, `index_convert`), lane for lane, for *arbitrary* inputs — including NaN payloads, signed
//! zeros, subnormals, and infinities. That shapes the implementation:
//!
//! - only IEEE-exact ops are vectorized (add/sub/mul/div/min/max,
//!   comparisons, mask algebra, select, round/saturate casts, loads, and
//!   the float → index conversion of data-dependent accesses, which
//!   yields integers and so has no rounding to preserve);
//!   transcendentals (`UnOp`), `Mod` and `Pow` stay on the scalar paths;
//! - **no FMA contraction is ever emitted** — multiplies and adds remain
//!   separate instructions, so results match the scalar evaluation exactly;
//! - `min`/`max` blend around the asymmetric NaN/±0 behavior of
//!   `minps`/`maxps` to reproduce Rust's `f32::min`/`f32::max`;
//! - the round-half-away-from-zero cast uses an exact integer-truncate /
//!   compare sequence rather than the classic (and *wrong* in f32)
//!   `trunc(|x| + 0.5)` trick, and quiets signaling NaNs exactly like
//!   `f32::round` does;
//! - vector bodies cover `len` rounded down to the vector width and a
//!   scalar tail finishes the rest through the op table itself, so lanes at and beyond `ctx.len` are
//!   never read or written.
//!
//! The proptest suite in `crates/vm/tests` re-runs random kernels at every
//! available [`SimdLevel`] and asserts bit-identical register files against
//! the forced-scalar path.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (scoped `#[allow(unsafe_code)]` under the crate's `#![deny(unsafe_code)]`);
//! the safety argument is that every `#[target_feature]` function is reached
//! only through a [`SimdLevel`] that [`clamp_to_detected`] has approved for
//! the running CPU.

use std::sync::OnceLock;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::eval::CHUNK;
use polymage_ir::{BinOp, CmpOp};

/// A cache-line-aligned chunk register: the storage unit of
/// [`crate::RegFile`].
///
/// `#[repr(align(64))]` guarantees every register (and every in-register
/// vector lane group) is aligned for the widest load/store the backend
/// emits, so the x86 loops can use aligned `load_ps`/`store_ps` on register
/// operands.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct Lanes(pub(crate) [f32; CHUNK]);

impl Lanes {
    /// A zero-filled register.
    pub(crate) fn zeroed() -> Lanes {
        Lanes([0.0; CHUNK])
    }
}

impl std::ops::Deref for Lanes {
    type Target = [f32; CHUNK];
    #[inline]
    fn deref(&self) -> &[f32; CHUNK] {
        &self.0
    }
}

impl std::ops::DerefMut for Lanes {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32; CHUNK] {
        &mut self.0
    }
}

/// The dispatch level of the SIMD backend — which instruction set the
/// chunk loops use.
///
/// Levels are totally ordered by preference on each architecture; the
/// executor resolves one level per program at compile time (see
/// [`resolve`]) and [`crate::RegFile::set_simd`] clamps whatever it is
/// handed to the running CPU's capabilities, so a level held by a register
/// file is always safe to dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdLevel {
    /// Portable scalar loops (the autovectorized fallback); also the
    /// `POLYMAGE_SIMD=off` ablation path, which bypasses dispatch entirely.
    #[default]
    Scalar,
    /// 128-bit x86-64 loops (baseline on every x86-64 CPU).
    Sse2,
    /// 256-bit x86-64 loops (runtime-detected).
    Avx2,
    /// 128-bit aarch64 loops (baseline on every aarch64 CPU).
    Neon,
}

impl SimdLevel {
    /// Stable lowercase name (matches the `POLYMAGE_SIMD` spellings).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The SIMD knob of `CompileOptions`: either automatic per-process
/// detection or a forced level for ablation.
///
/// Forced levels are clamped to what the running CPU supports (forcing
/// `Avx2` on an SSE2-only machine falls back to the detected best), so a
/// forced option can never make dispatch unsound. The `POLYMAGE_SIMD`
/// environment variable, when set to anything but `auto`, overrides this
/// option process-wide — that is what the CI ablation legs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdOpt {
    /// Use the best level the CPU supports (the default).
    #[default]
    Auto,
    /// Force the scalar loops (bypass SIMD dispatch entirely).
    Off,
    /// Force 128-bit x86-64 loops.
    Sse2,
    /// Force 256-bit x86-64 loops.
    Avx2,
    /// Force aarch64 NEON loops.
    Neon,
}

impl SimdOpt {
    /// Parses the `POLYMAGE_SIMD` spellings: `auto` (or empty) → `Auto`,
    /// `off`/`scalar`/`0`/`none` → `Off`, and the level names `sse2`,
    /// `avx2`, `neon` (case-insensitive). `None` for anything else.
    ///
    /// This is the single source of truth for the knob's grammar; the
    /// `POLYMAGE_SIMD` reader parses through it.
    pub fn parse_spelling(s: &str) -> Option<SimdOpt> {
        match s.to_ascii_lowercase().as_str() {
            "" | "auto" => Some(SimdOpt::Auto),
            "off" | "scalar" | "0" | "none" => Some(SimdOpt::Off),
            "sse2" => Some(SimdOpt::Sse2),
            "avx2" => Some(SimdOpt::Avx2),
            "neon" => Some(SimdOpt::Neon),
            _ => None,
        }
    }
}

/// The best [`SimdLevel`] the running CPU supports.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else if std::arch::is_x86_feature_detected!("sse2") {
            SimdLevel::Sse2
        } else {
            SimdLevel::Scalar
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Every level executable on this machine, scalar first. Proptests force
/// each of these and assert bit-identity against the scalar path.
pub fn available_levels() -> Vec<SimdLevel> {
    let mut v = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            v.push(SimdLevel::Sse2);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(SimdLevel::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        v.push(SimdLevel::Neon);
    }
    v
}

/// Clamps a requested level to what the CPU can actually execute.
///
/// `Scalar` is always honored; an unavailable forced level falls back to
/// [`detect`] (never *up*: forcing `Sse2` on an AVX2 machine stays SSE2).
pub fn clamp_to_detected(level: SimdLevel) -> SimdLevel {
    if level == SimdLevel::Scalar || available_levels().contains(&level) {
        level
    } else {
        detect()
    }
}

/// The level a forced option selects, clamped to the CPU; `None` for
/// [`SimdOpt::Auto`].
fn forced(opt: SimdOpt) -> Option<SimdLevel> {
    match opt {
        SimdOpt::Auto => None,
        SimdOpt::Off => Some(SimdLevel::Scalar),
        SimdOpt::Sse2 => Some(clamp_to_detected(SimdLevel::Sse2)),
        SimdOpt::Avx2 => Some(clamp_to_detected(SimdLevel::Avx2)),
        SimdOpt::Neon => Some(clamp_to_detected(SimdLevel::Neon)),
    }
}

/// The `POLYMAGE_SIMD` override (read by [`crate::env`]). `None` means
/// unset, malformed or `auto`.
fn env_override() -> Option<SimdLevel> {
    crate::env::get().simd.and_then(forced)
}

/// Resolves a compile-option knob to a concrete dispatch level.
///
/// Precedence: the `POLYMAGE_SIMD` environment override (for ablation and
/// CI) beats the option; otherwise the option is honored, clamped to the
/// CPU. The result is always executable on this machine.
pub fn resolve(opt: SimdOpt) -> SimdLevel {
    env_override()
        .or_else(|| forced(opt))
        .unwrap_or_else(process_level)
}

/// The per-process default level: `POLYMAGE_SIMD` if set, else [`detect`].
/// Computed once (at first engine/evaluator use) and cached.
pub fn process_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| env_override().unwrap_or_else(detect))
}

// ---------------------------------------------------------------------------
// Dispatch wrappers. Each returns `true` when the op was handled at the
// given level (vector body + scalar tail), `false` when the caller must run
// its scalar loop (Scalar level, or an op family the level does not cover).
//
// Safety: `level` must be executable on the running CPU. All callers take
// it from `RegFile::simd`, which `set_simd` clamps via `clamp_to_detected`.
// ---------------------------------------------------------------------------

/// Vectorized [`BinOp`] over `d[..len] = a[..len] ⊕ b[..len]`.
/// `Mod` and `Pow` are not IEEE-single-instruction ops and stay scalar.
#[inline]
pub(crate) fn bin(
    level: SimdLevel,
    op: BinOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) -> bool {
    if matches!(op, BinOp::Mod | BinOp::Pow) {
        return false;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::bin_avx2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::bin_sse2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::bin_neon(op, d, a, b, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`CmpOp`] mask: `d[i] = (a[i] ⊲ b[i]) as f32`.
#[inline]
pub(crate) fn cmp(
    level: SimdLevel,
    op: CmpOp,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::cmp_avx2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::cmp_sse2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::cmp_neon(op, d, a, b, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized mask negation `d = 1.0 − a`.
#[inline]
pub(crate) fn mask_not(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::not_avx2(d, a, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::not_sse2(d, a, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::not_neon(d, a, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[inline]
pub(crate) fn select(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::select_avx2(d, m, a, b, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::select_sse2(d, m, a, b, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::select_neon(d, m, a, b, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`crate::Op::CastRound`]: round half away from zero.
#[inline]
pub(crate) fn cast_round(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::round_avx2(d, a, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::round_sse2(d, a, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::round_neon(d, a, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`crate::Op::CastSat`]: clamp to `[lo, hi]`, then round.
#[inline]
pub(crate) fn cast_sat(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::sat_avx2(d, a, lo, hi, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::sat_sse2(d, a, lo, hi, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::sat_neon(d, a, lo, hi, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized chunk store with optional saturation and rounding (the
/// non-trivial arms of the executor's contiguous store, `StoreDest::store`). `dst` and `src` are
/// equal-length slices; `dst` may be unaligned (it points into an output
/// buffer).
#[inline]
pub(crate) fn store(
    level: SimdLevel,
    dst: &mut [f32],
    src: &[f32],
    sat: Option<(f32, f32)>,
    round: bool,
) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::store_avx2(dst, src, sat, round) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::store_sse2(dst, src, sat, round) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::store_neon(dst, src, sat, round) };
            true
        }
        _ => false,
    }
}

/// Vectorized constant-stride load: `d[i] = data[start + i·step]`
/// (the `m == 1` resolved-strided form, via hardware gather on AVX2).
///
/// Falls back (`false`) unless every index provably lies inside `data`
/// and within `i32` range — the scalar loop then reproduces the legacy
/// behavior exactly, including its panic on out-of-range indices.
#[inline]
pub(crate) fn strided_load(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    data: &[f32],
    start: i64,
    step: i64,
    len: usize,
) -> bool {
    if len == 0 {
        return false;
    }
    let last = start + (len as i64 - 1) * step;
    let (lo, hi) = (start.min(last), start.max(last));
    if lo < 0 || hi >= data.len() as i64 || hi > i32::MAX as i64 {
        return false;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::strided_avx2(d, data, start, step, len) };
            true
        }
        _ => false,
    }
}

/// One lane of [`index_from_f32`]: the op table's index conversion then
/// the clamp, `polymage_ir::index_convert(v).clamp(lo, hi)`, for integer
/// bounds with `lo ≤ hi` and magnitudes up to 2²⁴ — spelled as the vector
/// bodies compute it, with no `roundf` call, so the scalar level
/// autovectorizes.
///
/// Clamping first is what lets a 32-bit truncating convert do the rest:
/// rounding is monotone and fixes integers, so with integer bounds
/// `clamp(round(v)) == round(clamp(v))`, and the clamped value is small
/// enough that `v − trunc(v)` is exact.
#[inline]
pub(crate) fn index_lane(v: f32, lo: i32, hi: i32) -> i32 {
    let v = if v.is_nan() { 0.0 } else { v };
    let c = v.clamp(lo as f32, hi as f32);
    let t = c as i32;
    let frac = c - t as f32;
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

/// The register term of the index pipeline:
/// `acc[i] += (index(src[i]) − lo)·stride` for `i < len`, in wrapping
/// `i32` arithmetic, where `index` is [`index_lane`]. Every level computes
/// the same integers; the caller guarantees `lo ≤ hi`, both within ±2²⁴.
#[inline]
pub(crate) fn index_from_f32(
    level: SimdLevel,
    acc: &mut [i32; CHUNK],
    src: &[f32; CHUNK],
    lo: i32,
    hi: i32,
    stride: i32,
    len: usize,
) {
    debug_assert!(lo <= hi && lo.unsigned_abs() <= 1 << 24 && hi.unsigned_abs() <= 1 << 24);
    match level {
        // SAFETY (all three): `level` is executable on this CPU (see the
        // section comment above); the bodies touch only `acc` and `src`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::index_avx2(acc, src, lo, hi, stride, len) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::index_sse2(acc, src, lo, hi, stride, len) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::index_neon(acc, src, lo, hi, stride, len) },
        _ => index_tail(acc, src, lo, hi, stride, 0, len),
    }
}

/// Lanes `from..len` of [`index_from_f32`], one at a time.
#[inline]
fn index_tail(
    acc: &mut [i32; CHUNK],
    src: &[f32; CHUNK],
    lo: i32,
    hi: i32,
    stride: i32,
    from: usize,
    len: usize,
) {
    for i in from..len {
        let term = (index_lane(src[i], lo, hi) - lo).wrapping_mul(stride);
        acc[i] = acc[i].wrapping_add(term);
    }
}

/// Vectorized indexed load: `d[i] = data[off[i]]` for `i < len` (hardware
/// gather on AVX2).
///
/// Sound for any offsets: each vector of offsets is compared against
/// `data.len()` and out-of-range lanes are masked out of the gather, so
/// nothing outside `data` is ever read. Returns `false` — with `d`
/// unspecified — when a lane was out of range or the level has no gather;
/// the caller's indexed loop then loads (and bounds-checks) every lane.
#[inline]
pub(crate) fn gather(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    data: &[f32],
    off: &[i32; CHUNK],
    len: usize,
) -> bool {
    match level {
        // SAFETY: `level` is executable on this CPU; `gather_avx2` itself
        // keeps every read inside `data`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::gather_avx2(d, data, off, len) },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_consistent() {
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&detect()));
        assert!(levels.contains(&process_level()));
        for &l in &levels {
            assert_eq!(clamp_to_detected(l), l, "available level {l} must stick");
        }
        // clamping an unavailable level must yield something executable
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert!(levels.contains(&clamp_to_detected(l)));
        }
    }

    #[test]
    fn resolve_honors_off() {
        // With no env override the knob decides.
        if std::env::var("POLYMAGE_SIMD").is_err() {
            assert_eq!(resolve(SimdOpt::Off), SimdLevel::Scalar);
            assert_eq!(resolve(SimdOpt::Auto), process_level());
        } else {
            // Under an env override every option resolves to the override.
            let forced = resolve(SimdOpt::Auto);
            assert_eq!(resolve(SimdOpt::Off), forced);
        }
    }

    #[test]
    fn names_roundtrip() {
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert!(!l.name().is_empty());
            assert_eq!(format!("{l}"), l.name());
        }
    }
}
