//! What the engine's workers execute: one overlapped tile, one sweep of
//! (a chunk of) a reduction domain, one sequential scan. All three walk
//! their domain with the one row/chunk loop nest, [`for_each_chunk`] (the
//! paper's Fig. 7 loop nest, chunks standing in for its `ivdep` innermost
//! loop); tiles and scans store through [`StoreDest::store`]. Scheduling
//! lives in `engine`.

use crate::eval::{eval_kernel, BufView, ChunkCtx};
use crate::index::{IndexPlan, RegTerm};
use crate::{
    BufDecl, BufId, Buffer, CaseExec, EvalMode, Program, ReductionExec, RegFile, SeqExec,
    StageExec, TiledGroup, VmError, CHUNK,
};
use polymage_ir::{store_convert, Reduction};
use polymage_poly::Rect;

/// Execution statistics of one program run (all tiled groups).
///
/// `points_computed` counts every point evaluated, including the redundant
/// recomputation at overlapped-tile borders — comparing it against the sum
/// of stage domain volumes measures the *actual* redundancy, which tests
/// check against the §3.4 analysis' prediction.
///
/// `group_times` attributes wall-clock time to groups (in execution order)
/// unless the run was submitted with per-group stats off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Overlapped tiles executed.
    pub tiles: u64,
    /// Kernel chunk evaluations.
    pub chunks: u64,
    /// Points computed (lanes stored), including redundant recomputation.
    pub points_computed: u64,
    /// Per-group wall-clock durations, in execution order.
    pub group_times: Vec<(String, std::time::Duration)>,
    /// Chunks that reused a cached uniform preamble.
    pub uniform_hits: u64,
    /// Chunks that (re)computed the uniform preamble.
    pub uniform_misses: u64,
    /// Load-class histogram of runtime row resolutions (one tally per
    /// row per load).
    pub loads: crate::LoadHistogram,
    /// Tiles executed per participating worker. Sized to the run's
    /// *effective* worker count — `min(requested threads, engine pool
    /// size)` — and indexed by participation slot: slot `i` is the
    /// `i`-th distinct pooled worker (in first-claim order) that executed
    /// work for this run, not a pool-wide worker id. At most `effective`
    /// distinct workers ever join one run, so trailing slots of lightly
    /// parallel runs stay zero. The sum equals `tiles`.
    pub worker_tiles: Vec<u64>,
    /// Busy wall-clock per participating worker (time spent inside strip
    /// and reduction-chunk execution), indexed like [`RunStats::worker_tiles`].
    /// Subtracting from the run's group time gives idle time.
    pub worker_busy: Vec<std::time::Duration>,
    /// Lanes evaluated while dispatching AVX2 chunk loops.
    pub simd_lanes_avx2: u64,
    /// Lanes evaluated while dispatching SSE2 chunk loops.
    pub simd_lanes_sse2: u64,
    /// Lanes evaluated while dispatching NEON chunk loops.
    pub simd_lanes_neon: u64,
    /// Lanes evaluated on the portable scalar path.
    pub simd_lanes_scalar: u64,
    /// Lanes of indexed accesses (non-contiguous loads and reduction
    /// scatter targets) addressed through the vector index pipeline.
    pub index_lanes_vector: u64,
    /// Lanes of indexed accesses addressed by the scalar walk (the
    /// `SimdLevel::Scalar` path, or an offset range the pipeline could not
    /// prove in bounds).
    pub index_lanes_scalar: u64,
    /// Full buffers returned to the pool before run completion (runs under
    /// a narrowed [`crate::StoragePlan`]; 0 for run-scoped plans).
    pub early_releases: u64,
    /// Peak bytes of this run's full buffers resident at once.
    pub peak_full_bytes: u64,
    /// Time between submission and the first worker picking the run up.
    /// Under load this is the scheduling delay the run's priority/deadline
    /// bought — or cost — it.
    pub sched_wait: std::time::Duration,
    /// Tiles (or reduction chunks) the run skipped because it was
    /// cancelled: claims never granted after the cancel signal plus the
    /// remainder of any strip a worker abandoned mid-flight. Zero for runs
    /// that completed. A positive value proves the run stopped early.
    pub cancelled_tiles: u64,
}

impl RunStats {
    /// The uniform-preamble cache hit rate over evaluated chunks, or
    /// `None` when no kernel ran.
    pub fn uniform_hit_rate(&self) -> Option<f64> {
        let total = self.uniform_hits + self.uniform_misses;
        (total > 0).then(|| self.uniform_hits as f64 / total as f64)
    }
}

/// Checks that `inputs` matches the program's declared images (count and
/// shape).
pub(crate) fn validate_inputs(prog: &Program, inputs: &[Buffer]) -> Result<(), VmError> {
    if inputs.len() != prog.image_bufs.len() {
        return Err(VmError::InputCountMismatch {
            expected: prog.image_bufs.len(),
            got: inputs.len(),
        });
    }
    for (i, (&b, input)) in prog.image_bufs.iter().zip(inputs).enumerate() {
        let decl = &prog.buffers[b.0];
        let want = decl_rect(decl);
        if input.rect != want {
            return Err(VmError::InputShapeMismatch {
                index: i,
                expected: want.to_string(),
                got: input.rect.to_string(),
            });
        }
    }
    Ok(())
}

pub(crate) fn decl_rect(decl: &BufDecl) -> Rect {
    Rect::new(
        decl.origin
            .iter()
            .zip(&decl.sizes)
            .map(|(&o, &s)| (o, o + s - 1))
            .collect(),
    )
}

/// Where one case's stores land: a flat array addressed as
/// `offset + Σ coordᵈ·strideᵈ` (strided cases fold their `(stride, phase)`
/// into these), converted by the stage's store rule.
struct StoreDest {
    offset: i64,
    strides: Vec<i64>,
    sat: Option<(f32, f32)>,
    round: bool,
}

impl StoreDest {
    /// Builds a destination for buffer storage with the given origin,
    /// buffer strides, and per-dim case steps.
    fn new(
        origin: &[i64],
        buf_strides: &[i64],
        steps: &[(i64, i64)],
        sat: Option<(f32, f32)>,
        round: bool,
    ) -> StoreDest {
        let mut offset = 0i64;
        let mut strides = Vec::with_capacity(buf_strides.len());
        for d in 0..buf_strides.len() {
            let (s, ph) = steps.get(d).copied().unwrap_or((1, 0));
            offset += (ph - origin[d]) * buf_strides[d];
            strides.push(s * buf_strides[d]);
        }
        StoreDest {
            offset,
            strides,
            sat,
            round,
        }
    }

    /// Stores the `len` live lanes `case` just evaluated into `regs`, for
    /// the chunk starting at `coords` along `axis`: through the SIMD store
    /// kernels when the lanes are contiguous, lane by lane when strided,
    /// and only where the case's mask is set when it has one. Always
    /// inlined, so each chunk loop keeps its store in its own body.
    #[inline(always)]
    fn store(
        &self,
        data: &mut [f32],
        coords: &[i64],
        axis: usize,
        len: usize,
        regs: &RegFile,
        case: &CaseExec,
    ) {
        let (sat, round) = (self.sat, self.round);
        let mut base = self.offset;
        for (c, s) in coords.iter().zip(&self.strides) {
            base += c * s;
        }
        let st = self.strides[axis];
        // Only the live lanes: those at or beyond `len` may hold stale
        // values from earlier chunks.
        let out = &regs.reg(case.kernel.out())[..len];
        match case.mask {
            None if st == 1 => {
                let dst = &mut data[base as usize..base as usize + len];
                if let (None, false) = (sat, round) {
                    dst.copy_from_slice(out);
                } else if !crate::simd::store(regs.simd_level(), dst, out, sat, round) {
                    for (d, &v) in dst.iter_mut().zip(out) {
                        *d = store_convert(v, sat, round);
                    }
                }
            }
            None => {
                for (i, &v) in out.iter().enumerate() {
                    data[(base + i as i64 * st) as usize] = store_convert(v, sat, round);
                }
            }
            Some(m) => {
                let mask = &regs.reg(m)[..len];
                for (i, (&mv, &v)) in mask.iter().zip(out).enumerate() {
                    if mv != 0.0 {
                        data[(base + i as i64 * st) as usize] = store_convert(v, sat, round);
                    }
                }
            }
        }
    }
}

/// Converts a concrete rectangle into strided ("virtual") coordinates:
/// dimension `d` keeps only points `≡ phase (mod stride)`, renumbered
/// consecutively.
fn virtual_rect(rect: &Rect, steps: &[(i64, i64)]) -> Rect {
    Rect::new(
        rect.ranges()
            .iter()
            .enumerate()
            .map(|(d, &(lo, hi))| {
                let (s, ph) = steps.get(d).copied().unwrap_or((1, 0));
                if s == 1 {
                    (lo - ph, hi - ph) // ph is 0 for identity steps
                } else {
                    // ceil((lo − ph)/s) ..= floor((hi − ph)/s)
                    (-(-(lo - ph)).div_euclid(s), (hi - ph).div_euclid(s))
                }
            })
            .collect(),
    )
}

/// Iterates the coordinates of `rect` over every dimension except `axis`
/// (the chunked one), invoking `f` with the coordinate buffer whose `axis`
/// entry is reset to the range start.
fn for_each_row(rect: &Rect, axis: usize, f: &mut dyn FnMut(&mut [i64])) {
    if rect.is_empty() {
        return;
    }
    let n = rect.ndim();
    let mut coords: Vec<i64> = rect.ranges().iter().map(|&(lo, _)| lo).collect();
    if n == 1 {
        f(&mut coords);
        return;
    }
    // iteration order over the non-axis dims, outermost first
    let dims: Vec<usize> = (0..n).filter(|&d| d != axis).collect();
    loop {
        coords[axis] = rect.range(axis).0;
        f(&mut coords);
        // advance odometer over the non-axis dims
        let mut i = dims.len();
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            let d = dims[i];
            coords[d] += 1;
            if coords[d] <= rect.range(d).1 {
                break;
            }
            coords[d] = rect.range(d).0;
        }
    }
}

/// The row/chunk loop nest every executor runs: walks `rect` row by row
/// over every dimension but `axis`, and each row in chunks of at most
/// `step` points along `axis`, calling `f(regs, coords, len)` with
/// `coords[axis]` at the chunk's first point. Each row starts with
/// [`RegFile::begin_row`].
///
/// Tiles chunk along [`chunk_axis`]. Reductions and scans chunk along the
/// last axis: a reduction's scatter combines in the domain's row-major
/// order (which makes a `Sum` reproducible), and a scan's self-dependences
/// only allow whole chunks along the row-major innermost dimension.
fn for_each_chunk(
    rect: &Rect,
    axis: usize,
    step: usize,
    regs: &mut RegFile,
    mut f: impl FnMut(&mut RegFile, &[i64], usize),
) {
    let (xlo, xhi) = rect.range(axis);
    for_each_row(rect, axis, &mut |coords| {
        regs.begin_row();
        let mut x = xlo;
        while x <= xhi {
            let len = ((xhi - x + 1) as usize).min(step);
            coords[axis] = x;
            f(regs, coords, len);
            x += len as i64;
        }
    });
}

/// Chooses the chunk axis for a rectangle: the last dimension unless it is
/// short and another dimension is substantially longer (small innermost
/// dimensions — color channels, grid depth — would otherwise cap chunks at
/// a few lanes).
fn chunk_axis(rect: &Rect) -> usize {
    let n = rect.ndim();
    if n <= 1 {
        return 0;
    }
    // Innermost dimension with a worthwhile extent (smallest load/store
    // stride wins ties), else the longest dimension overall.
    for d in (0..n).rev() {
        if rect.extent(d) >= 32 {
            return d;
        }
    }
    (0..n).max_by_key(|&d| rect.extent(d)).unwrap_or(n - 1)
}

/// Evaluates all cases of a stage over `region`, storing into a flat
/// buffer addressed by `origin`/`buf_strides`.
#[allow(clippy::too_many_arguments)]
fn eval_cases_into(
    stage: &StageExec,
    region: &Rect,
    mode: EvalMode,
    views: &[Option<BufView<'_>>],
    regs: &mut RegFile,
    data: &mut [f32],
    origin: &[i64],
    buf_strides: &[i64],
    local: &mut LocalStats,
) {
    for case in &stage.cases {
        let rect = case.rect.intersect(region);
        if rect.is_empty() {
            continue;
        }
        // Strided cases iterate compressed coordinates; their kernels were
        // lowered in that space.
        let vrect = virtual_rect(&rect, &case.steps);
        if vrect.is_empty() {
            continue;
        }
        // Chunk along the most profitable dimension (kernels resolve the
        // chunk axis at run time).
        let axis = chunk_axis(&vrect);
        let dest = StoreDest::new(origin, buf_strides, &case.steps, stage.sat, stage.round);
        for_each_chunk(&vrect, axis, mode.chunk_len(), regs, |regs, coords, len| {
            let ctx = ChunkCtx {
                coords,
                len,
                inner: axis,
                bufs: views,
            };
            eval_kernel(&case.kernel, &ctx, regs);
            local.chunks += 1;
            local.points += len as u64;
            dest.store(data, coords, axis, len, regs, case);
        });
    }
}

/// One strip's slab of a full buffer written by stage `stage` of a tiled
/// group: whole rows of dimension 0 starting at `row_lo` (pool-backed; the
/// engine stitches it into the buffer by position).
pub(crate) struct SlabPart {
    pub(crate) stage: usize,
    pub(crate) buf: BufId,
    pub(crate) row_lo: i64,
    pub(crate) data: Vec<f32>,
}

/// The full buffers a tiled group writes, as `(stage index, buffer)` pairs.
///
/// # Errors
///
/// Rejects groups where two stages store to the same full buffer (slab
/// partitioning assumes one writer per buffer).
pub(crate) fn written_stages(tg: &TiledGroup) -> Result<Vec<(usize, BufId)>, VmError> {
    let written: Vec<(usize, BufId)> = tg
        .stages
        .iter()
        .enumerate()
        .filter_map(|(k, s)| s.full.map(|b| (k, b)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for &(_, b) in &written {
        if !seen.insert(b) {
            return Err(VmError::Internal(format!(
                "buffer {b:?} written by two stages in one group"
            )));
        }
    }
    Ok(written)
}

/// Per-strip layout of a tiled group: the row range each strip owns per
/// stage (from the precomputed tile stores) and the tile indices grouped by
/// strip.
pub(crate) type StripRows = Vec<Vec<Option<(i64, i64)>>>;

pub(crate) fn strip_layout(tg: &TiledGroup) -> (StripRows, Vec<Vec<usize>>) {
    // Row ranges each strip owns per written stage (from precomputed stores).
    let mut strip_rows: StripRows = vec![vec![None; tg.nstrips]; tg.stages.len()];
    for t in &tg.tiles {
        for (k, st) in t.stores.iter().enumerate() {
            if let Some(r) = st {
                if r.is_empty() {
                    continue;
                }
                let (lo, hi) = r.range(0);
                let e = &mut strip_rows[k][t.strip];
                *e = Some(match *e {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        }
    }

    // Tiles grouped by strip.
    let mut tiles_by_strip: Vec<Vec<usize>> = vec![Vec::new(); tg.nstrips];
    for (i, t) in tg.tiles.iter().enumerate() {
        tiles_by_strip[t.strip].push(i);
    }
    (strip_rows, tiles_by_strip)
}

/// Rows-per-unit size of a buffer's trailing dimensions (elements per row
/// of dimension 0).
pub(crate) fn row_size(decl: &BufDecl) -> i64 {
    if decl.sizes.len() > 1 {
        decl.sizes[1..].iter().product::<i64>()
    } else {
        1
    }
}

/// Per-worker counters, merged into the run's statistics once per unit.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LocalStats {
    pub(crate) tiles: u64,
    pub(crate) chunks: u64,
    pub(crate) points: u64,
    /// Tiles of a claimed strip abandoned because the run was cancelled.
    pub(crate) cancelled_tiles: u64,
    /// Drained evaluator counters (uniform cache, load classes).
    pub(crate) eval: crate::EvalCounters,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tile(
    prog: &Program,
    tg: &TiledGroup,
    tile: &crate::TileWork,
    read_refs: &[Option<&[f32]>],
    slabs: &mut [SlabPart],
    arena: &mut [f32],
    regs: &mut RegFile,
    local: &mut LocalStats,
) {
    debug_assert_eq!(arena.len(), tg.slots.arena_len);
    for (k, stage) in tg.stages.iter().enumerate() {
        let region = &tile.regions[k];
        if region.is_empty() {
            continue;
        }

        if stage.direct {
            let views = build_views(prog, tg, tile, read_refs, arena, &[], arena.len(), stage);
            let b = stage.full.expect("direct stage stores to a full buffer");
            let decl = &prog.buffers[b.0];
            let store = tile.stores[k].clone().unwrap_or_else(|| region.clone());
            if store.is_empty() {
                continue;
            }
            let si = slabs
                .iter()
                .position(|s| s.stage == k)
                .expect("slab for direct stage");
            let mut origin = decl.origin.clone();
            origin[0] = slabs[si].row_lo;
            eval_cases_into(
                stage,
                &store,
                prog.mode,
                &views,
                regs,
                &mut slabs[si].data,
                &origin,
                &decl.strides(),
                local,
            );
        } else {
            let decl = &prog.buffers[stage.scratch.0];
            // Carve the stage's own slot range out of the packed arena;
            // producer slots resolve from the remaining `lo`/`hi` halves
            // (slot sharing guarantees live producers never overlap it).
            let own = tg.slots.stage[k].expect("non-direct stage has a slot");
            let (lo, rest) = arena.split_at_mut(own.offset);
            let (target, hi) = rest.split_at_mut(own.len);
            let views = build_views(
                prog,
                tg,
                tile,
                read_refs,
                lo,
                hi,
                own.offset + own.len,
                stage,
            );
            // Reset the whole slot: undefined values must read as 0, and a
            // previous occupant (or this stage's previous tile) may have
            // left residue anywhere in it.
            target.fill(0.0);
            let origin: Vec<i64> = region.ranges().iter().map(|&(lo, _)| lo).collect();
            eval_cases_into(
                stage,
                region,
                prog.mode,
                &views,
                regs,
                target,
                &origin,
                &decl.strides(),
                local,
            );
            // Copy-out to the full buffer if required.
            if let Some(b) = stage.full {
                if let Some(store) = &tile.stores[k] {
                    if !store.is_empty() {
                        let fdecl = &prog.buffers[b.0];
                        let si = slabs
                            .iter()
                            .position(|s| s.stage == k)
                            .expect("slab for stored stage");
                        copy_region(
                            target,
                            decl,
                            region,
                            &mut slabs[si].data,
                            fdecl,
                            slabs[si].row_lo,
                            store,
                        );
                    }
                }
            }
        }
    }
}

/// Builds the buffer views a stage's kernels need.
///
/// The packed arena arrives as the two halves around the current stage's
/// own slot: `lo` holds arena elements `[0, lo.len())` and `hi` holds
/// `[hi_start, arena_len)`. A producer's slot always falls entirely inside
/// one half because live ranges that intersect are assigned disjoint slot
/// bytes.
#[allow(clippy::too_many_arguments)]
fn build_views<'a>(
    prog: &Program,
    tg: &TiledGroup,
    tile: &crate::TileWork,
    read_refs: &[Option<&'a [f32]>],
    lo: &'a [f32],
    hi: &'a [f32],
    hi_start: usize,
    stage: &StageExec,
) -> Vec<Option<BufView<'a>>> {
    let mut views: Vec<Option<BufView<'a>>> = vec![None; prog.buffers.len()];
    for &b in &stage.reads {
        let decl = &prog.buffers[b.0];
        match decl.kind {
            crate::BufKind::Full => {
                let data = read_refs[b.0].unwrap_or_else(|| {
                    panic!(
                        "stage `{}` reads full buffer `{}` written by its own group",
                        stage.name, decl.name
                    )
                });
                views[b.0] = Some(BufView::full(decl, data));
            }
            crate::BufKind::Scratch => {
                let j = tg
                    .stages
                    .iter()
                    .position(|s| !s.direct && s.scratch == b)
                    .expect("scratch owner in group");
                let r = tg.slots.stage[j].expect("producer has a slot");
                let data: &'a [f32] = if r.offset + r.len <= lo.len() {
                    &lo[r.offset..r.offset + r.len]
                } else if r.offset >= hi_start {
                    &hi[r.offset - hi_start..r.offset - hi_start + r.len]
                } else {
                    panic!(
                        "stage `{}` reads scratch `{}` whose slot aliases its own (liveness violation)",
                        stage.name, decl.name
                    )
                };
                let region = &tile.regions[j];
                views[b.0] = Some(BufView {
                    data,
                    origin: region.ranges().iter().map(|&(lo, _)| lo).collect(),
                    strides: decl.strides(),
                    sizes: decl.sizes.clone(),
                });
            }
        }
    }
    views
}

/// Copies `store` rows from a scratch region to a full-buffer slab.
#[allow(clippy::too_many_arguments)]
fn copy_region(
    scratch: &[f32],
    sdecl: &BufDecl,
    region: &Rect,
    slab: &mut [f32],
    fdecl: &BufDecl,
    slab_row_lo: i64,
    store: &Rect,
) {
    let sstr = sdecl.strides();
    let fstr = fdecl.strides();
    let sorigin: Vec<i64> = region.ranges().iter().map(|&(lo, _)| lo).collect();
    let mut forigin = fdecl.origin.clone();
    forigin[0] = slab_row_lo;
    let n = store.ndim();
    let row_len = store.extent(n - 1) as usize;
    for_each_row(store, store.ndim() - 1, &mut |coords| {
        let mut sbase = 0i64;
        let mut fbase = 0i64;
        for d in 0..n {
            let c = if d == n - 1 {
                store.range(d).0
            } else {
                coords[d]
            };
            sbase += (c - sorigin[d]) * sstr[d];
            fbase += (c - forigin[d]) * fstr[d];
        }
        slab[fbase as usize..fbase as usize + row_len]
            .copy_from_slice(&scratch[sbase as usize..sbase as usize + row_len]);
    });
}

/// Views of the full buffers `reads` names, from the run's read snapshots
/// (`read_refs`, by buffer id); `reader` names the reduction or scan.
pub(crate) fn full_views<'a>(
    prog: &Program,
    reader: &str,
    reads: &[BufId],
    read_refs: &[Option<&'a [f32]>],
) -> Vec<Option<BufView<'a>>> {
    let mut views: Vec<Option<BufView<'a>>> = vec![None; prog.buffers.len()];
    for &b in reads {
        let decl = &prog.buffers[b.0];
        let data = read_refs[b.0]
            .unwrap_or_else(|| panic!("`{reader}` reads unavailable buffer `{}`", decl.name));
        views[b.0] = Some(BufView::full(decl, data));
    }
    views
}

/// Sweeps (part of) the reduction domain, combining into `out` in the
/// domain's row-major order (lanes ascending within a chunk), so the
/// result does not depend on how the targets were addressed.
pub(crate) fn sweep_reduction(
    prog: &Program,
    red: &ReductionExec,
    views: &[Option<BufView<'_>>],
    dom: &Rect,
    out: &mut [f32],
    regs: &mut RegFile,
) {
    let decl = &prog.buffers[red.out.0];
    // An accumulator with an empty dimension has no cell to combine into.
    if dom.is_empty() || decl.sizes.iter().any(|&s| s <= 0) {
        return;
    }
    // Every target dimension is a register index, clamped into the
    // accumulator like a data-dependent load's.
    let mut target = IndexPlan::new(0);
    for (d, &stride) in decl.strides().iter().enumerate() {
        target.push_reg(RegTerm {
            org: decl.origin[d],
            size: decl.sizes[d],
            stride,
            reg: red.kernel.outs[1 + d],
        });
    }
    let axis = dom.ndim() - 1;
    regs.set_simd(prog.simd);
    let lvl = regs.simd_level();
    let mut off = [0i32; CHUNK];
    for_each_chunk(
        dom,
        axis,
        prog.mode.chunk_len(),
        regs,
        |regs, coords, len| {
            let ctx = ChunkCtx {
                coords,
                len,
                inner: axis,
                bufs: views,
            };
            eval_kernel(&red.kernel, &ctx, regs);
            // Only the live lanes: those beyond `len` are stale.
            let val = &regs.reg(red.kernel.outs[0])[..len];
            let x = coords[axis];
            let vector = target.fill_offsets(lvl, &regs.regs, x, len, out.len(), &mut off);
            if vector {
                scatter(red.op, out, off[..len].iter().map(|&o| o as usize), val);
            } else {
                let cells = (0..len).map(|i| target.offset_at(&regs.regs, x, i) as usize);
                scatter(red.op, out, cells, val);
            }
            regs.counters.count_indexed(vector, len);
        },
    );
}

/// Combines `vals` into `out[cell]`, lane by lane in ascending order (many
/// lanes may hit one cell; the order is what makes a `Sum` reproducible).
fn scatter(op: Reduction, out: &mut [f32], cells: impl Iterator<Item = usize>, vals: &[f32]) {
    per_op!(op, Reduction { Sum Min Max }, |o| {
        cells.zip(vals).for_each(|(c, &v)| out[c] = o.combine(out[c], v));
    });
}

/// Runs a sequential scan over its domain, straight into its output
/// buffer, which its kernels also read (zero where not yet written).
pub(crate) fn execute_seq(prog: &Program, seq: &SeqExec, fulls: &mut [Vec<f32>]) {
    let decl = &prog.buffers[seq.out.0];
    let strides = decl.strides();
    let axis = seq.dom.ndim() - 1;
    let step = if seq.chunked {
        prog.mode.chunk_len()
    } else {
        1
    };
    let mut out = std::mem::take(&mut fulls[seq.out.0]);
    let read_refs: Vec<Option<&[f32]>> = fulls.iter().map(|v| Some(&v[..])).collect();
    let mut regs = RegFile::new();
    regs.set_simd(prog.simd);
    for case in &seq.cases {
        let rect = case.rect.intersect(&seq.dom);
        if rect.is_empty() {
            continue;
        }
        let vrect = virtual_rect(&rect, &case.steps);
        if vrect.is_empty() {
            continue;
        }
        let dest = StoreDest::new(&decl.origin, &strides, &case.steps, seq.sat, seq.round);
        for_each_chunk(&vrect, axis, step, &mut regs, |regs, coords, len| {
            // The scan's own output buffer mutates between chunks, so the
            // uniform-row cache must be invalidated per chunk — within one
            // chunk reads precede this chunk's writes, exactly matching a
            // point-by-point evaluation order.
            regs.begin_row();
            {
                let mut views = full_views(prog, &seq.name, &seq.reads, &read_refs);
                views[seq.out.0] = Some(BufView::full(decl, &out));
                let ctx = ChunkCtx {
                    coords,
                    len,
                    inner: axis,
                    bufs: &views,
                };
                eval_kernel(&case.kernel, &ctx, regs);
            }
            dest.store(&mut out, coords, axis, len, regs, case);
        });
    }
    fulls[seq.out.0] = out;
}
