//! The chunk evaluator — the VM's hot path.
//!
//! A kernel is evaluated over a *chunk*: a run of up to [`CHUNK`] consecutive
//! points along the consumer's innermost dimension. Each operation processes
//! the whole chunk in a tight slice loop, which the Rust compiler
//! auto-vectorizes — the stand-in for the paper's icc-vectorized `ivdep`
//! loops. Scalar mode simply evaluates chunks of length 1.
//!
//! Kernels are produced in SSA form (every operation writes a fresh
//! register), which lets the evaluator take disjoint borrows of destination
//! and source registers without copying.

use crate::index::IndexPlan;
use crate::loadclass::{self, ResolvedLoad};
use crate::simd::{self, Lanes, SimdLevel};
use crate::{BufDecl, Kernel, Op};
use polymage_ir::{round_ties_away, store_convert, BinOp, CmpOp, UnOp};

/// Chunk capacity (lanes per register).
pub const CHUNK: usize = 128;

/// A read-only view of a buffer during kernel evaluation.
///
/// `origin` is the absolute coordinate stored at flat index 0 (the domain's
/// lower corner for full buffers, the tile-region origin for scratchpads).
#[derive(Debug, Clone)]
pub struct BufView<'a> {
    /// Backing storage (row-major).
    pub data: &'a [f32],
    /// Absolute coordinate of flat index 0.
    pub origin: Vec<i64>,
    /// Row-major strides matching the allocation.
    pub strides: Vec<i64>,
    /// Allocation sizes.
    pub sizes: Vec<i64>,
}

impl<'a> BufView<'a> {
    /// A view of a whole full buffer, laid out as `decl` declares it.
    pub(crate) fn full(decl: &BufDecl, data: &'a [f32]) -> BufView<'a> {
        BufView {
            data,
            origin: decl.origin.clone(),
            strides: decl.strides(),
            sizes: decl.sizes.clone(),
        }
    }
}

/// Per-chunk evaluation context.
pub struct ChunkCtx<'a> {
    /// Consumer coordinates of the chunk's first point; `coords[inner]`
    /// advances along the chunk.
    pub coords: &'a [i64],
    /// Number of points in the chunk (≤ [`CHUNK`]).
    pub len: usize,
    /// The innermost (chunked) consumer dimension.
    pub inner: usize,
    /// Buffer views, indexed by [`crate::BufId`]. Entries not read by the
    /// kernel may be `None`.
    pub bufs: &'a [Option<BufView<'a>>],
}

/// Uniform-preamble cache and load-resolution counters, accumulated by a
/// [`RegFile`] while evaluating kernels and drained with
/// [`RegFile::take_counters`].
///
/// These are plain integers bumped in the evaluator (never diagnostics
/// calls — the hot path stays branch-light); executors flush them at group
/// granularity into run statistics and the diagnostics layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Chunks that reused a cached uniform preamble (row cache hit).
    pub uniform_hits: u64,
    /// Chunks that (re)computed the uniform preamble.
    pub uniform_misses: u64,
    /// Load-class histogram of row-resolved loads (counted at resolve
    /// time, i.e. once per row per load).
    pub loads: crate::LoadHistogram,
    /// Lanes evaluated while dispatching AVX2 chunk loops.
    pub simd_lanes_avx2: u64,
    /// Lanes evaluated while dispatching SSE2 chunk loops.
    pub simd_lanes_sse2: u64,
    /// Lanes evaluated while dispatching NEON chunk loops.
    pub simd_lanes_neon: u64,
    /// Lanes evaluated on the portable scalar path.
    pub simd_lanes_scalar: u64,
    /// Lanes of indexed accesses (strided, floor-divided, diagonal and
    /// data-dependent loads; reduction scatter targets) whose offsets came
    /// from the vector index pipeline.
    pub index_lanes_vector: u64,
    /// Lanes of indexed accesses addressed one at a time by the scalar
    /// walk: everything at [`SimdLevel::Scalar`], and any access whose
    /// offset range the pipeline could not prove.
    pub index_lanes_scalar: u64,
}

impl EvalCounters {
    /// Attributes one evaluated chunk's lanes to the active dispatch level.
    #[inline]
    pub(crate) fn count_chunk(&mut self, level: SimdLevel, len: usize) {
        let lanes = len as u64;
        match level {
            SimdLevel::Avx2 => self.simd_lanes_avx2 += lanes,
            SimdLevel::Sse2 => self.simd_lanes_sse2 += lanes,
            SimdLevel::Neon => self.simd_lanes_neon += lanes,
            SimdLevel::Scalar => self.simd_lanes_scalar += lanes,
        }
    }

    /// Tallies the lanes of one indexed access on the side that addressed
    /// them.
    #[inline]
    pub(crate) fn count_indexed(&mut self, vector: bool, len: usize) {
        if vector {
            self.index_lanes_vector += len as u64;
        } else {
            self.index_lanes_scalar += len as u64;
        }
    }
}

/// The register file backing kernel evaluation. Reused across chunks to
/// avoid allocation in inner loops.
///
/// The file also caches a kernel's chunk-invariant *preamble* — uniform
/// register values and resolved load plans — across the chunks of one row.
/// Executors call [`RegFile::begin_row`] whenever the outer coordinates,
/// buffer views, or current kernel may have changed; evaluating a kernel
/// at different outer coordinates without an intervening `begin_row` is
/// detected by the coordinate check and recomputed.
#[derive(Debug)]
pub struct RegFile {
    pub(crate) regs: Vec<Lanes>,
    /// SIMD dispatch level for the chunk loops; always clamped to what the
    /// running CPU supports (see [`RegFile::set_simd`]), which is the
    /// safety invariant the `simd` module's `target_feature` calls rely on.
    pub(crate) simd: SimdLevel,
    /// True when lanes `1..` of the register replicate lane 0 (uniform
    /// registers are broadcast lazily).
    bcast: Vec<bool>,
    /// Monotonic row counter; bumped by [`RegFile::begin_row`].
    epoch: u64,
    /// Row epoch the preamble cache was built in (`0` = never).
    cache_epoch: u64,
    /// Identity of the cached kernel (address of its op list).
    cache_token: usize,
    /// Chunk axis the cache was resolved for.
    cache_inner: usize,
    /// Outer coordinates the cache was computed at.
    cache_coords: Vec<i64>,
    /// Resolved load plans for the cached row, one per `Op::Load`.
    resolved: Vec<ResolvedLoad>,
    /// The cached row's index plans ([`ResolvedLoad::Indexed`] positions).
    pub(crate) plans: Vec<IndexPlan>,
    /// Evaluation counters since the last drain.
    pub(crate) counters: EvalCounters,
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile {
            regs: Vec::new(),
            simd: simd::process_level(),
            bcast: Vec::new(),
            // Start at 1 so a zeroed cache (epoch 0) can never match.
            epoch: 1,
            cache_epoch: 0,
            cache_token: 0,
            cache_inner: 0,
            cache_coords: Vec::new(),
            resolved: Vec::new(),
            plans: Vec::new(),
            counters: EvalCounters::default(),
        }
    }
}

impl RegFile {
    /// Creates an empty register file.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Ensures capacity for `n` registers.
    ///
    /// Registers are zero-filled only here, when the vec grows past its
    /// high-water mark (safe-Rust initialization of fresh storage) — never
    /// re-zeroed on reuse. That is sound because ops write `[..len]` before
    /// anything reads it and no consumer reads lanes at or beyond
    /// `ctx.len`, so stale lanes from a previous kernel or a longer chunk
    /// can never leak into results (see the tail-chunk regression test in
    /// `tests/simd_levels.rs`).
    pub fn ensure(&mut self, n: usize) {
        if self.regs.len() < n {
            self.regs.resize(n, Lanes::zeroed());
            self.bcast.resize(n, false);
        }
    }

    /// Sets the SIMD dispatch level, clamped to the running CPU's
    /// capabilities (so any stored level is safe to dispatch on). Executors
    /// call this with the level resolved at compile time
    /// (`Program::simd`); freshly created register files default to the
    /// per-process level.
    #[inline]
    pub fn set_simd(&mut self, level: SimdLevel) {
        self.simd = simd::clamp_to_detected(level);
    }

    /// The active SIMD dispatch level.
    #[inline]
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Invalidates the per-row preamble cache. Executors call this at the
    /// start of every row (and per chunk for sequential scans, whose output
    /// buffer mutates under the kernel).
    #[inline]
    pub fn begin_row(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Broadcasts lane 0 of `r` into all lanes, once.
    #[inline]
    fn broadcast_full(&mut self, r: u16) {
        let i = r as usize;
        if !self.bcast[i] {
            let v = self.regs[i][0];
            self.regs[i].fill(v);
            self.bcast[i] = true;
        }
    }

    /// Whether the cached preamble is valid for this kernel/axis/row.
    fn cache_valid(&self, token: usize, ctx: &ChunkCtx<'_>) -> bool {
        self.cache_epoch == self.epoch
            && self.cache_token == token
            && self.cache_inner == ctx.inner
            && self.cache_coords.len() == ctx.coords.len()
            && self
                .cache_coords
                .iter()
                .zip(ctx.coords)
                .enumerate()
                .all(|(d, (&c, &x))| d == ctx.inner || c == x)
    }

    /// Records the cache key for the preamble being (re)computed.
    fn cache_store_key(&mut self, token: usize, ctx: &ChunkCtx<'_>) {
        self.cache_epoch = self.epoch;
        self.cache_token = token;
        self.cache_inner = ctx.inner;
        self.cache_coords.clear();
        self.cache_coords.extend_from_slice(ctx.coords);
    }

    /// Returns and resets the accumulated evaluation counters.
    pub fn take_counters(&mut self) -> EvalCounters {
        std::mem::take(&mut self.counters)
    }

    /// Read access to a register's lanes.
    pub fn reg(&self, r: crate::RegId) -> &[f32; CHUNK] {
        &self.regs[r.0 as usize].0
    }

    /// Disjoint `(dst, src)` borrows.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `dst == a`; kernels are SSA so this cannot happen
    /// for well-formed programs.
    fn pair(&mut self, dst: u16, a: u16) -> (&mut [f32; CHUNK], &[f32; CHUNK]) {
        debug_assert_ne!(dst, a, "kernel not in SSA form");
        if dst < a {
            let (lo, hi) = self.regs.split_at_mut(a as usize);
            (&mut lo[dst as usize].0, &hi[0].0)
        } else {
            let (lo, hi) = self.regs.split_at_mut(dst as usize);
            (&mut hi[0].0, &lo[a as usize].0)
        }
    }

    /// Disjoint `(dst, a, b)` borrows (`a` may equal `b`).
    fn tri(
        &mut self,
        dst: u16,
        a: u16,
        b: u16,
    ) -> (&mut [f32; CHUNK], &[f32; CHUNK], &[f32; CHUNK]) {
        debug_assert!(dst != a && dst != b, "kernel not in SSA form");
        let (lo, hi) = self.regs.split_at_mut(dst as usize);
        // dst is the freshest register: in SSA kernels a, b < dst.
        debug_assert!(a < dst && b < dst, "operands precede destination in SSA");
        (&mut hi[0].0, &lo[a as usize].0, &lo[b as usize].0)
    }

    /// Disjoint `(dst, mask, a, b)` borrows.
    #[allow(clippy::type_complexity)]
    fn quad(
        &mut self,
        dst: u16,
        m: u16,
        a: u16,
        b: u16,
    ) -> (
        &mut [f32; CHUNK],
        &[f32; CHUNK],
        &[f32; CHUNK],
        &[f32; CHUNK],
    ) {
        debug_assert!(
            m < dst && a < dst && b < dst,
            "operands precede destination"
        );
        let (lo, hi) = self.regs.split_at_mut(dst as usize);
        (
            &mut hi[0].0,
            &lo[m as usize].0,
            &lo[a as usize].0,
            &lo[b as usize].0,
        )
    }
}

/// Evaluates `k` over the chunk described by `ctx`, leaving results in
/// `regs` at `k.outs`.
///
/// Chunk-invariant ops (dependence bit of the chunk axis clear, see
/// [`Kernel::dep`]) run once per row in a scalar preamble, cached across
/// the row's chunks; lane-varying ops run through the vector loops, and
/// loads dispatch through the form resolved for the row.
///
/// # Panics
///
/// Panics (in debug builds) on malformed kernels: unresolved buffers,
/// non-SSA register use, or out-of-range affine indices. Data-dependent
/// indices are clamped into the buffer, never panic.
pub fn eval_kernel(k: &Kernel, ctx: &ChunkCtx<'_>, regs: &mut RegFile) {
    regs.ensure(k.nregs);
    regs.counters.count_chunk(regs.simd, ctx.len);
    let len = ctx.len;
    let inner_bit: u32 = 1u32 << ctx.inner.min(31);
    let token = k.ops.as_ptr() as usize;
    let fresh = !regs.cache_valid(token, ctx);
    if fresh {
        regs.counters.uniform_misses += 1;
        regs.cache_store_key(token, ctx);
        let mut resolved = std::mem::take(&mut regs.resolved);
        let mut plans = std::mem::take(&mut regs.plans);
        resolved.clear();
        plans.clear();
        for op in &k.ops {
            if let Op::Load { dst, buf, plan } = op {
                let r = if k.dep[dst.0 as usize] & inner_bit == 0 {
                    ResolvedLoad::Uniform
                } else {
                    loadclass::resolve_load(ctx, *buf, plan, &mut plans)
                };
                regs.counters.loads.add(r.class(&plans));
                resolved.push(r);
            }
        }
        regs.resolved = resolved;
        regs.plans = plans;
    } else {
        regs.counters.uniform_hits += 1;
    }
    let resolved = std::mem::take(&mut regs.resolved);
    let plans = std::mem::take(&mut regs.plans);
    let mut li = 0usize;
    for op in &k.ops {
        let dst = op.dst().0 as usize;
        if k.dep[dst] & inner_bit == 0 {
            if fresh {
                // The uniform preamble: lane 0 only.
                regs.regs[dst][0] = match op {
                    Op::Load { buf, plan, .. } => loadclass::load_scalar(ctx, regs, *buf, plan),
                    _ => op.eval_scalar(ctx.coords, |r| regs.regs[r.0 as usize][0]),
                };
                regs.bcast[dst] = false;
            }
            if matches!(op, Op::Load { .. }) {
                li += 1;
            }
            continue;
        }
        // Lane-varying op: materialize uniform operands first.
        op.for_each_src(|r| {
            if k.dep[r.0 as usize] & inner_bit == 0 {
                regs.broadcast_full(r.0);
            }
        });
        if let Op::Load { dst, buf, plan } = op {
            loadclass::exec_resolved(ctx, regs, *dst, *buf, plan, resolved[li], &plans, len);
            li += 1;
        } else {
            exec_op(op, ctx, regs, len);
        }
    }
    regs.resolved = resolved;
    regs.plans = plans;
    // Consumers (stores, reduction scatter, store masks) read full lanes.
    for &o in &k.outs {
        if k.dep[o.0 as usize] & inner_bit == 0 {
            regs.broadcast_full(o.0);
        }
    }
}

/// Executes one lane-varying non-load op across the chunk.
fn exec_op(op: &Op, ctx: &ChunkCtx<'_>, regs: &mut RegFile, len: usize) {
    match op {
        Op::CoordF { dst, dim } => {
            let d = &mut regs.regs[dst.0 as usize];
            if *dim == ctx.inner {
                let x0 = ctx.coords[*dim];
                for (i, v) in d[..len].iter_mut().enumerate() {
                    *v = (x0 + i as i64) as f32;
                }
            } else {
                // Another coordinate sharing the chunk axis's dependence
                // bit (31 and beyond): constant along the chunk.
                d[..len].fill(ctx.coords[*dim] as f32);
            }
        }
        Op::BinF { op, dst, a, b } => {
            let lvl = regs.simd;
            let (d, va, vb) = regs.tri(dst.0, a.0, b.0);
            if simd::bin(lvl, *op, d, va, vb, len) {
                return;
            }
            per_op!(*op, BinOp { Add Sub Mul Div Min Max Mod Pow }, |o| {
                for i in 0..len {
                    d[i] = o.eval(va[i], vb[i]);
                }
            });
        }
        Op::UnF { op, dst, a } => {
            let (d, va) = regs.pair(dst.0, a.0);
            per_op!(*op, UnOp { Neg Abs Sqrt Exp Log Sin Cos Floor Ceil }, |o| {
                for i in 0..len {
                    d[i] = o.eval(va[i]);
                }
            });
        }
        Op::CmpMask { op, dst, a, b } => {
            let lvl = regs.simd;
            let (d, va, vb) = regs.tri(dst.0, a.0, b.0);
            if simd::cmp(lvl, *op, d, va, vb, len) {
                return;
            }
            per_op!(*op, CmpOp { Lt Le Gt Ge Eq Ne }, |o| {
                for i in 0..len {
                    d[i] = o.mask(va[i], vb[i]);
                }
            });
        }
        Op::MaskAnd { dst, a, b } => {
            let lvl = regs.simd;
            let (d, va, vb) = regs.tri(dst.0, a.0, b.0);
            // Mask AND is a lane product — same instruction as `Mul`.
            if simd::bin(lvl, BinOp::Mul, d, va, vb, len) {
                return;
            }
            for i in 0..len {
                d[i] = va[i] * vb[i];
            }
        }
        Op::MaskOr { dst, a, b } => {
            let lvl = regs.simd;
            let (d, va, vb) = regs.tri(dst.0, a.0, b.0);
            // Mask OR is a lane max — same sequence as `Max`.
            if simd::bin(lvl, BinOp::Max, d, va, vb, len) {
                return;
            }
            for i in 0..len {
                d[i] = va[i].max(vb[i]);
            }
        }
        Op::MaskNot { dst, a } => {
            let lvl = regs.simd;
            let (d, va) = regs.pair(dst.0, a.0);
            if simd::mask_not(lvl, d, va, len) {
                return;
            }
            for i in 0..len {
                d[i] = 1.0 - va[i];
            }
        }
        Op::SelectF { dst, mask, a, b } => {
            let lvl = regs.simd;
            let (d, vm, va, vb) = regs.quad(dst.0, mask.0, a.0, b.0);
            if simd::select(lvl, d, vm, va, vb, len) {
                return;
            }
            for i in 0..len {
                d[i] = if vm[i] != 0.0 { va[i] } else { vb[i] };
            }
        }
        Op::CastRound { dst, a } => {
            let lvl = regs.simd;
            let (d, va) = regs.pair(dst.0, a.0);
            if simd::cast_round(lvl, d, va, len) {
                return;
            }
            for i in 0..len {
                d[i] = round_ties_away(va[i]);
            }
        }
        Op::CastSat { dst, a, lo, hi } => {
            let lvl = regs.simd;
            let (d, va) = regs.pair(dst.0, a.0);
            if simd::cast_sat(lvl, d, va, *lo, *hi, len) {
                return;
            }
            for i in 0..len {
                d[i] = store_convert(va[i], Some((*lo, *hi)), true);
            }
        }
        Op::ConstF { .. } | Op::Load { .. } => {
            unreachable!("constants are uniform; loads run through their resolved form")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_ops::{affine, bin, cf, coord, load};
    use crate::{IdxPlan, RegId};

    fn view(data: &[f32], origin: Vec<i64>, sizes: Vec<i64>) -> BufView<'_> {
        let mut strides = vec![1i64; sizes.len()];
        for d in (0..sizes.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * sizes[d + 1];
        }
        BufView {
            data,
            origin,
            strides,
            sizes,
        }
    }

    fn eval_simple(k: &Kernel, coords: &[i64], len: usize, bufs: &[Option<BufView>]) -> Vec<f32> {
        let ctx = ChunkCtx {
            coords,
            len,
            inner: coords.len() - 1,
            bufs,
        };
        let mut regs = RegFile::new();
        eval_kernel(k, &ctx, &mut regs);
        regs.reg(k.out())[..len].to_vec()
    }

    #[test]
    fn const_and_arith() {
        let k = Kernel::new(
            vec![cf(0, 2.0), cf(1, 3.0), bin(BinOp::Mul, 2, 0, 1)],
            vec![RegId(2)],
        );
        assert_eq!(eval_simple(&k, &[0], 4, &[]), vec![6.0; 4]);
    }

    #[test]
    fn coord_iota_and_broadcast() {
        let k = Kernel::new(
            vec![coord(0, 1), coord(1, 0), bin(BinOp::Add, 2, 0, 1)],
            vec![RegId(2)],
        );
        // coords (y=7, x0=10): out = [17, 18, 19]
        assert_eq!(eval_simple(&k, &[7, 10], 3, &[]), vec![17.0, 18.0, 19.0]);
    }

    #[test]
    fn contiguous_load() {
        let data: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let v = view(&data, vec![0], vec![20]);
        let k = Kernel::new(vec![load(0, vec![affine(0, 1, 2, 1)])], vec![RegId(0)]);
        assert_eq!(eval_simple(&k, &[5], 3, &[Some(v)]), vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn strided_and_floored_loads() {
        let data: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let v = view(&data, vec![0], vec![20]);
        // 2x+1 over x=[1..3]
        let k = Kernel::new(vec![load(0, vec![affine(0, 2, 1, 1)])], vec![RegId(0)]);
        assert_eq!(
            eval_simple(&k, &[1], 3, &[Some(v.clone())]),
            vec![3.0, 5.0, 7.0]
        );
        // x/2 over x=[4..7]
        let k = Kernel::new(vec![load(0, vec![affine(0, 1, 0, 2)])], vec![RegId(0)]);
        assert_eq!(
            eval_simple(&k, &[4], 4, &[Some(v)]),
            vec![2.0, 2.0, 3.0, 3.0]
        );
    }

    #[test]
    fn two_dim_load_with_origin() {
        // 3×4 buffer with origin (2, 10)
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let v = view(&data, vec![2, 10], vec![3, 4]);
        // load (y=3, x) for x in [11..13]  → row 1, cols 1..3 → 5,6,7
        let k = Kernel::new(
            vec![load(0, vec![affine(0, 1, 0, 1), affine(1, 1, 0, 1)])],
            vec![RegId(0)],
        );
        assert_eq!(
            eval_simple(&k, &[3, 11], 3, &[Some(v)]),
            vec![5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn dynamic_gather_clamps() {
        let data: Vec<f32> = (0..10).map(|i| (i * 10) as f32).collect();
        let v = view(&data, vec![0], vec![10]);
        // index = coords scaled by 3 (some out of range, clamped to 9)
        let k = Kernel::new(
            vec![
                coord(0, 0),
                cf(1, 3.0),
                bin(BinOp::Mul, 2, 0, 1),
                load(3, vec![IdxPlan::Reg(RegId(2))]),
            ],
            vec![RegId(3)],
        );
        // x = 2,3,4 → idx 6, 9, 12→clamped 9
        assert_eq!(eval_simple(&k, &[2], 3, &[Some(v)]), vec![60.0, 90.0, 90.0]);
    }

    #[test]
    fn select_and_masks() {
        let k = Kernel::new(
            vec![
                coord(0, 0),
                cf(1, 2.0),
                Op::CmpMask {
                    op: CmpOp::Ge,
                    dst: RegId(2),
                    a: RegId(0),
                    b: RegId(1),
                },
                Op::MaskNot {
                    dst: RegId(3),
                    a: RegId(2),
                },
                Op::SelectF {
                    dst: RegId(4),
                    mask: RegId(3),
                    a: RegId(1),
                    b: RegId(0),
                },
            ],
            vec![RegId(4)],
        );
        // x = 0..3: mask(x>=2) → not → select(not, 2.0, x) = [2,2,2,3]
        assert_eq!(eval_simple(&k, &[0], 4, &[]), vec![2.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn casts() {
        let k = Kernel::new(
            vec![
                cf(0, 2.5),
                Op::CastRound {
                    dst: RegId(1),
                    a: RegId(0),
                },
                cf(2, 300.0),
                Op::CastSat {
                    dst: RegId(3),
                    a: RegId(2),
                    lo: 0.0,
                    hi: 255.0,
                },
            ],
            vec![RegId(1), RegId(3)],
        );
        let ctx = ChunkCtx {
            coords: &[0],
            len: 2,
            inner: 0,
            bufs: &[],
        };
        let mut regs = RegFile::new();
        eval_kernel(&k, &ctx, &mut regs);
        assert_eq!(regs.reg(RegId(1))[0], 3.0);
        assert_eq!(regs.reg(RegId(3))[0], 255.0);
    }

    #[test]
    fn mod_is_euclidean() {
        let k = Kernel::new(
            vec![cf(0, -3.0), cf(1, 5.0), bin(BinOp::Mod, 2, 0, 1)],
            vec![RegId(2)],
        );
        assert_eq!(eval_simple(&k, &[0], 1, &[]), vec![2.0]);
    }
}
