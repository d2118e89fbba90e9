//! Cache-model-driven per-group tile-size selection (the model side of the
//! paper's §3.8 autotuning story).
//!
//! The paper picks tile sizes so that each tile's working set fits in
//! cache while the redundant recomputation introduced by overlapped tiling
//! stays bounded. Under [`crate::TileSpec::Auto`] (the default) this module
//! runs once per *group*, after grouping (Algorithm 1) has settled the
//! structure.
//!
//! A group whose whole-domain working set — every stage at its full
//! extent plus every out-of-group source in full, an upper bound on any
//! tile's — already fits the cache budget gets no decision: no tile shape
//! can change what fits in cache, so it keeps the fixed
//! [`crate::DEFAULT_TILE_SIZES`], and the model costs one pass over its
//! stage list. Every other group gets the largest tile shape such that
//!
//! 1. **cache budget** — the per-tile working set (scratch slot bytes
//!    after simulated liveness folding, plus streamed full-store bytes and
//!    input/full-buffer read footprints with the overlap halos of
//!    [`polymage_poly::group_overlap`]) fits a fraction of the detected L2
//!    ([`CacheModel`]);
//! 2. **parallelism floor** — the strip dimension still yields at least
//!    [`min_strip_tiles`] tiles so the engine's dynamic strip claiming can
//!    balance load;
//! 3. **redundancy cap** — the predicted redundant-computation fraction
//!    `∏(τ_d + o_d)/∏ τ_d − 1` stays under the group's overlap threshold
//!    (the same quantity Algorithm 1 bounds when it merges).
//!
//! Decisions are recorded on the [`crate::ParametricPlan`] (symbolic, at
//! the parameter estimates) and re-checked against the concrete bounds at
//! instantiation time. The same model ranks autotuner candidates
//! (`autotune_pruned`), so only the few configurations the model cannot
//! separate are ever measured.

use crate::autotune::TILE_CANDIDATES;
use crate::grouping::{effective_tiles, Group, GroupKindTag, PAR_STRIPS};
use crate::storage::StageStorage;
use crate::CompileOptions;
use polymage_diag::{Counter, Diag, Value};
use polymage_graph::PipelineGraph;
use polymage_ir::{visit_func_exprs, Expr, FuncId, Pipeline, Source};
use polymage_poly::{
    extract_accesses, group_overlap, solve_alignment, AccessDim, DimMap, GroupOverlap,
};
use std::sync::OnceLock;

/// Fraction of L2 the per-tile working set may occupy (numerator /
/// denominator): leave headroom for the engine's own state and the
/// streamed full-buffer traffic the model only approximates.
const WS_BUDGET_NUM: usize = 3;
const WS_BUDGET_DEN: usize = 4;

/// Tiles per worker the strip dimension must yield for dynamic strip
/// claiming to balance load (the `k` of constraint 2).
const STRIP_TILES_PER_WORKER: usize = 4;

/// Per-tile fixed overhead, expressed in sink points: tile setup (region
/// propagation state, scratch rebasing) costs roughly this many point
/// evaluations, so shapes with tiny tiles score worse in
/// [`predict_group_cost`].
const TILE_OVERHEAD_POINTS: f64 = 512.0;

/// Per-row overhead, in sink points: every strip-dim iteration of a tile
/// restarts the chunked inner loops and loads partial cache lines at the
/// tile edge, costing roughly this many point evaluations — so shapes
/// that are narrow in the inner dimensions score worse than wide bands
/// of the same volume.
const ROW_OVERHEAD_POINTS: f64 = 96.0;

/// The model must predict at least this fractional cost improvement over
/// the fixed baseline shape before its choice replaces the baseline. The
/// cost model's error bars are wider than a few percent, so deviations
/// inside this margin are noise — the baseline (when it is itself
/// feasible) is the better-tested bet.
const MODEL_MARGIN: f64 = 0.03;

/// The cache geometry the model plans against.
///
/// Detected once per process from sysfs on Linux, with
/// [`CacheModel::FALLBACK`] wherever detection finds nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheModel {
    /// L1 data-cache bytes.
    pub l1: usize,
    /// Per-core L2 bytes — the working-set budget base.
    pub l2: usize,
    /// Cache-line bytes (row footprints round up to line multiples).
    pub line: usize,
}

impl CacheModel {
    /// Conservative fallback when detection finds nothing: 32 KiB L1,
    /// 1 MiB L2, 64-byte lines.
    pub const FALLBACK: CacheModel = CacheModel {
        l1: 32 * 1024,
        l2: 1024 * 1024,
        line: 64,
    };

    /// The per-tile working-set budget this model allows (`3/4 · l2`).
    pub fn budget(&self) -> usize {
        self.l2 / WS_BUDGET_DEN * WS_BUDGET_NUM
    }

    /// The process-wide model: [`CacheModel::detect`], resolved once (it
    /// participates in compile-cache keys, which must be stable).
    pub fn get() -> CacheModel {
        static MODEL: OnceLock<CacheModel> = OnceLock::new();
        *MODEL.get_or_init(CacheModel::detect)
    }

    /// Detects the host cache geometry (Linux sysfs; anything missing
    /// keeps its [`CacheModel::FALLBACK`] value).
    pub fn detect() -> CacheModel {
        let mut m = CacheModel::FALLBACK;
        let base = "/sys/devices/system/cpu/cpu0/cache";
        let Ok(entries) = std::fs::read_dir(base) else {
            return m;
        };
        for e in entries.flatten() {
            let p = e.path();
            let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
            let level = read("level").and_then(|s| s.trim().parse::<u32>().ok());
            let ty = read("type").map(|s| s.trim().to_string());
            let size = read("size").and_then(|s| parse_bytes(s.trim()));
            let line = read("coherency_line_size").and_then(|s| s.trim().parse::<usize>().ok());
            match (level, ty.as_deref(), size) {
                (Some(1), Some("Data"), Some(sz)) if sz > 0 => m.l1 = sz,
                (Some(2), _, Some(sz)) if sz > 0 => m.l2 = sz,
                _ => {}
            }
            if let Some(l) = line.filter(|&l| l > 0) {
                m.line = l;
            }
        }
        m
    }
}

/// Parses a sysfs byte count with an optional `K`/`M`/`G` suffix (sysfs
/// spells sizes like `48K`).
fn parse_bytes(s: &str) -> Option<usize> {
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1024),
        'm' | 'M' => (&s[..s.len() - 1], 1024 * 1024),
        'g' | 'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// The parallelism floor: the strip dimension must yield at least this
/// many tiles (`STRIP_TILES_PER_WORKER` × available workers, capped at
/// the untiled strip target). Resolved once per process; it participates
/// in compile-cache keys.
pub fn min_strip_tiles() -> usize {
    static FLOOR: OnceLock<usize> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (STRIP_TILES_PER_WORKER * workers).min(PAR_STRIPS as usize)
    })
}

/// One group's tile decision, recorded on the plan and re-checked per
/// binding.
#[derive(Debug, Clone, PartialEq)]
pub struct TileChoice {
    /// Chosen tile size per sink dimension (`None` = untiled), at the
    /// parameter estimates.
    pub tiles: Vec<Option<i64>>,
    /// Predicted per-tile working set (bytes) for the chosen shape.
    pub working_set: usize,
    /// Predicted redundancy fraction `∏(τ+o)/∏τ − 1` for the chosen
    /// shape.
    pub ratio: f64,
    /// `true` when no candidate satisfied every constraint and the choice
    /// fell back to the fixed baseline shape.
    pub fallback: bool,
}

/// Per-stage footprint geometry: how each stage dimension's per-tile
/// extent derives from the candidate tile shape.
#[derive(Debug, Clone)]
enum DimGeom {
    /// Aligned to group dimension `gdim` with schedule scale `num/den`:
    /// the per-tile extent is the scheduled span (sink span × sink scale,
    /// plus this stage's halo) divided back by the stage's own scale,
    /// clamped to the stage's full extent.
    Sched {
        gdim: usize,
        num: i64,
        den: i64,
        halo: i64,
        full: i64,
    },
    /// Free or unalignable: materialized whole.
    Fixed(i64),
}

/// One out-of-group read (input image or another group's full array):
/// per source dimension, either `(consumer_dim, q, m)` — the footprint
/// follows the consumer's per-tile extent through an affine access
/// `(q·x + o)/m` — or `None` (dynamic access, whole extent needed).
type ExtRead = (Source, Vec<Option<(usize, i64, i64)>>, Vec<i64>);

/// One stage of the group, reduced to what the working-set model needs.
#[derive(Debug, Clone)]
struct StageGeom {
    dims: Vec<DimGeom>,
    /// Scratchpad, full array, or both.
    storage: StageStorage,
    /// Indices (into the group's stage list) of in-group producers this
    /// stage reads — drives the liveness folding simulation.
    reads: Vec<usize>,
    /// Out-of-group read footprints, deduplicated by source.
    ext_reads: Vec<ExtRead>,
}

/// Everything [`select_tiles`] and [`predict_group_cost`] need about one
/// Normal group, computed once per group at the parameter estimates.
#[derive(Debug, Clone)]
pub struct GroupGeom {
    /// Sink domain extents at the estimates (defines the tile space).
    sink_extents: Vec<i64>,
    /// Sink schedule scale per group dimension (tile spans are in sink
    /// coordinates; overlap halos are in scheduled units).
    sink_scales: Vec<i64>,
    /// Per group dimension total overlap (left + right), scheduled units.
    overlap_total: Vec<i64>,
    stages: Vec<StageGeom>,
    /// Sum of stage domain volumes at the estimates (cost weight).
    points: f64,
}

impl GroupGeom {
    /// Builds the geometry for a Normal group, or `None` when alignment
    /// or overlap analysis fails (the grouping pass only forms alignable
    /// groups, so this is defensive).
    pub fn build(
        pipe: &Pipeline,
        graph: &PipelineGraph,
        group: &Group,
        opts: &CompileOptions,
    ) -> Option<GroupGeom> {
        if group.kind != GroupKindTag::Normal {
            return None;
        }
        let est = opts.estimates();
        // Producers first, mirroring the executor's stage order.
        let stages: Vec<FuncId> = graph
            .topo_order()
            .iter()
            .copied()
            .filter(|f| group.stages.contains(f))
            .collect();
        let sink = group.sink;
        let alignment = solve_alignment(pipe, &stages, sink).ok()?;
        let overlap: GroupOverlap = group_overlap(pipe, &stages, &alignment).ok()?;

        let extents_at = |f: FuncId| -> Vec<i64> {
            pipe.func(f)
                .var_dom
                .dom
                .iter()
                .map(|iv| {
                    let (lo, hi) = iv.eval(est);
                    (hi - lo + 1).max(1)
                })
                .collect()
        };
        let sink_extents = extents_at(sink);
        let ndims = alignment.ndims;
        let sink_scales: Vec<i64> = (0..ndims)
            .map(|g| alignment.scale_on(sink, g).map_or(1, |s| s.num().max(1)))
            .collect();
        let overlap_total: Vec<i64> = (0..ndims)
            .map(|g| overlap.dims.get(g).map_or(0, |o| o.total()))
            .collect();

        let mut geoms = Vec::with_capacity(stages.len());
        let mut points = 0.0f64;
        for &f in &stages {
            let fd = pipe.func(f);
            let exts = extents_at(f);
            points += exts.iter().map(|&e| e as f64).product::<f64>();
            let fext = &overlap.per_func[&f];
            let dims: Vec<DimGeom> = alignment
                .map(f)
                .iter()
                .enumerate()
                .map(|(d, m)| match m {
                    DimMap::Grouped { gdim, scale }
                        if *gdim < ndims && scale.num() > 0 && scale.den() > 0 =>
                    {
                        DimGeom::Sched {
                            gdim: *gdim,
                            num: scale.num(),
                            den: scale.den(),
                            halo: fext.get(*gdim).map_or(0, |o| o.total()),
                            full: exts[d],
                        }
                    }
                    _ => DimGeom::Fixed(exts[d]),
                })
                .collect();

            let storage = StageStorage::of(pipe, graph, &stages, f, opts.schedule);

            let mut reads: Vec<usize> = Vec::new();
            let mut ext_reads: Vec<ExtRead> = Vec::new();
            for acc in extract_accesses(fd) {
                match acc.src {
                    Source::Func(p) if stages.contains(&p) => {
                        if let Some(pi) = stages.iter().position(|&s| s == p) {
                            if p != f && !reads.contains(&pi) {
                                reads.push(pi);
                            }
                        }
                    }
                    src => {
                        // Out-of-group read: for an affine single-variable
                        // access `(q·x + o)/m` the footprint along the
                        // source dim follows consumer dim `x` scaled by
                        // `q/m`; anything else needs the whole extent.
                        let scales: Vec<Option<(usize, i64, i64)>> = acc
                            .dims
                            .iter()
                            .map(|dim| match dim {
                                AccessDim::Affine(a) => a.single_var().and_then(|(v, q)| {
                                    let cd = fd.var_dom.vars.iter().position(|&vv| vv == v)?;
                                    (q > 0 && a.den > 0).then_some((cd, q, a.den))
                                }),
                                AccessDim::Dynamic => None,
                            })
                            .collect();
                        let src_ext = source_extents(pipe, src, est);
                        match ext_reads.iter_mut().find(|(s, _, _)| *s == src) {
                            Some((_, sc, _)) => {
                                // Widen per dim toward the whole extent.
                                for (a, b) in sc.iter_mut().zip(&scales) {
                                    *a = match (*a, *b) {
                                        (Some((ca, qa, ma)), Some((cb, qb, mb))) if ca == cb => {
                                            // keep the larger ratio q/m
                                            if qa * mb >= qb * ma {
                                                Some((ca, qa, ma))
                                            } else {
                                                Some((cb, qb, mb))
                                            }
                                        }
                                        _ => None,
                                    };
                                }
                            }
                            None => ext_reads.push((src, scales, src_ext)),
                        }
                    }
                }
            }
            geoms.push(StageGeom {
                dims,
                storage,
                reads,
                ext_reads,
            });
        }
        Some(GroupGeom {
            sink_extents,
            sink_scales,
            overlap_total,
            stages: geoms,
            points,
        })
    }

    /// Sink extents at the estimates.
    pub fn sink_extents(&self) -> &[i64] {
        &self.sink_extents
    }

    /// Predicted redundancy fraction for a tile assignment — the same
    /// `∏(τ_d + o_d)/∏ τ_d − 1` Algorithm 1 bounds, evaluated on the
    /// *effective* shape: an untiled dim 0 still runs as
    /// `⌈ext/PAR_STRIPS⌉`-wide strips that each recompute their halo,
    /// while untiled inner dims are materialized whole (one span, no
    /// recomputation). Overlaps are in scheduled units, so tile spans
    /// convert through the sink scale.
    pub fn redundancy(&self, tiles: &[Option<i64>]) -> f64 {
        let span = self.spans(tiles);
        let mut ratio = 1.0;
        for (d, &s) in span.iter().enumerate() {
            let ext = self.sink_extents.get(d).copied().unwrap_or(1);
            let stripped = tiles.get(d).copied().flatten().is_some() || d == 0;
            if !stripped || s >= ext {
                continue; // whole-extent span: nothing is recomputed
            }
            let sched = s.max(1) * self.sink_scales.get(d).copied().unwrap_or(1);
            let o = self.overlap_total.get(d).copied().unwrap_or(0);
            ratio *= (sched + o) as f64 / sched as f64;
        }
        ratio - 1.0
    }

    /// The per-stage per-tile extent along one stage dimension for tile
    /// spans `span` (sink coordinates per group dim).
    fn stage_extent(&self, g: &DimGeom, span: &[i64]) -> i64 {
        match *g {
            DimGeom::Fixed(e) => e,
            DimGeom::Sched {
                gdim,
                num,
                den,
                halo,
                full,
            } => {
                let sink_scale = self.sink_scales.get(gdim).copied().unwrap_or(1);
                let sched = span.get(gdim).copied().unwrap_or(1).max(1) * sink_scale + halo;
                // stage extent = scheduled extent / (num/den), rounded up
                let e = (sched * den + num - 1) / num;
                e.clamp(1, full.max(1))
            }
        }
    }

    /// The tile span per group dimension for a tile assignment: the tile
    /// size where tiled, the full extent where not — except dim 0, where
    /// instantiation turns `None` into `⌈ext/PAR_STRIPS⌉`-wide strips, so
    /// that is the span that actually executes.
    fn spans(&self, tiles: &[Option<i64>]) -> Vec<i64> {
        self.sink_extents
            .iter()
            .enumerate()
            .map(|(d, &ext)| match tiles.get(d).copied().flatten() {
                Some(t) => t.min(ext),
                None if d == 0 => (ext + PAR_STRIPS - 1) / PAR_STRIPS,
                None => ext,
            })
            .collect()
    }

    /// Predicted per-tile working set in bytes for a tile assignment:
    /// scratch arena after simulated liveness folding, plus streamed full
    /// stores, plus out-of-group read footprints. An innermost extent
    /// that covers only part of its buffer's row rounds up to whole
    /// cache lines (each tile row starts mid-line in the full array);
    /// full-row extents are contiguous, so they carry no per-row line
    /// waste. Elements are 4 bytes (f32).
    pub fn working_set(&self, tiles: &[Option<i64>], model: &CacheModel) -> usize {
        let span = self.spans(tiles);
        let line_elems = (model.line / 4).max(1) as i64;
        let round_line = |e: i64| (e + line_elems - 1) / line_elems * line_elems;
        let footprint = |s: &StageGeom| -> usize {
            let mut elems = 1i64;
            let n = s.dims.len();
            for (d, g) in s.dims.iter().enumerate() {
                let mut e = self.stage_extent(g, &span);
                let partial_row = match *g {
                    DimGeom::Sched { full, .. } => e < full,
                    DimGeom::Fixed(_) => false,
                };
                if d + 1 == n && partial_row {
                    e = round_line(e);
                }
                elems = elems.saturating_mul(e.max(1));
            }
            elems as usize * 4
        };

        // Scratch arena: the storage pass's slot coloring over estimated
        // footprints.
        let lens: Vec<Option<usize>> = self
            .stages
            .iter()
            .map(|s| (!s.storage.direct).then(|| footprint(s)))
            .collect();
        let reads = self.stages.iter().map(|s| s.reads.iter().copied());
        let (_, slots) = crate::storage::color_slots(&lens, reads);
        let mut ws: usize = slots.iter().sum();

        for s in &self.stages {
            // Streamed stores to full arrays touch the tile's own region.
            if s.storage.needs_full {
                ws = ws.saturating_add(footprint(s));
            }
            // Out-of-group reads: the consumer's per-tile extent scaled
            // through the access (`q/m` per dim), clamped to the source.
            for (_, scales, src_ext) in &s.ext_reads {
                let mut elems = 1i64;
                let nd = scales.len();
                for (j, sc) in scales.iter().enumerate() {
                    let full = src_ext.get(j).copied().unwrap_or(1).max(1);
                    let mut e = match sc {
                        Some((cd, q, m)) => {
                            let ce = s
                                .dims
                                .get(*cd)
                                .map(|g| self.stage_extent(g, &span))
                                .unwrap_or(1);
                            (ce * q + m - 1) / m + 1
                        }
                        None => full,
                    };
                    e = e.clamp(1, full);
                    if j + 1 == nd && e < full {
                        e = round_line(e);
                    }
                    elems = elems.saturating_mul(e);
                }
                ws = ws.saturating_add(elems as usize * 4);
            }
        }
        ws
    }

    /// Tile count along the strip (outermost) dimension at the estimates
    /// (an untiled dim 0 strips by `PAR_STRIPS`, so it never constrains
    /// parallelism).
    pub fn strip_tiles(&self, tiles: &[Option<i64>]) -> i64 {
        let ext = self.sink_extents.first().copied().unwrap_or(1);
        match tiles.first().copied().flatten() {
            Some(t) if t > 0 => (ext + t - 1) / t,
            _ => ext.min(PAR_STRIPS),
        }
    }
}

/// Model cost of executing one group with a tile assignment: stage points
/// × (1 + redundancy) × cache penalty × per-tile overhead. The cache
/// penalty `1 + ws/L2` grows smoothly with the working set — a tile that
/// half-fills L2 evicts streamed lines and the other tiles' leftovers, so
/// smaller working sets win whenever the per-tile overhead term does not
/// say otherwise; past the budget the penalty steepens sharply. Used to
/// rank autotuner candidates and to order feasible shapes in
/// [`select_tiles`]. Lower is better; the absolute scale is arbitrary.
pub fn predict_group_cost(geom: &GroupGeom, tiles: &[Option<i64>], model: &CacheModel) -> f64 {
    let ratio = geom.redundancy(tiles).max(0.0);
    let ws = geom.working_set(tiles, model) as f64;
    let budget = model.budget() as f64;
    let cache_penalty = 1.0 + ws / model.l2 as f64 + (ws / budget - 1.0).max(0.0) * 4.0;
    let span = geom.spans(tiles);
    let tile_points: f64 = span.iter().map(|&s| s as f64).product::<f64>().max(1.0);
    let row_points: f64 = span
        .iter()
        .skip(1)
        .map(|&s| s as f64)
        .product::<f64>()
        .max(1.0);
    let overhead = 1.0 + TILE_OVERHEAD_POINTS / tile_points + ROW_OVERHEAD_POINTS / row_points;
    geom.points * (1.0 + ratio) * cache_penalty * overhead
}

/// Chooses a tile shape for one Normal group from the cache model: the
/// feasible candidate (cache budget, parallelism floor, redundancy cap)
/// with the lowest predicted cost, ties broken toward larger tiles and a
/// wider innermost dimension, then lexicographically for determinism.
/// The winner replaces the fixed baseline shape only when its predicted
/// cost beats the baseline's by `MODEL_MARGIN` (or the baseline is
/// itself infeasible); when nothing at all is feasible the baseline is
/// kept and recorded with `fallback: true`.
pub fn select_tiles(geom: &GroupGeom, opts: &CompileOptions, model: &CacheModel) -> TileChoice {
    let ndims = geom.sink_extents.len();
    let budget = model.budget();
    let min_strips = min_strip_tiles() as i64;

    // Candidate sizes per dimension: ladder entries the extent can hold
    // (the `ext ≥ 2τ` rule of `effective_tiles`), plus untiled.
    let cand: Vec<Vec<Option<i64>>> = geom
        .sink_extents
        .iter()
        .map(|&ext| {
            let mut c: Vec<Option<i64>> = TILE_CANDIDATES
                .iter()
                .copied()
                .filter(|&t| ext >= 2 * t)
                .map(Some)
                .collect();
            c.push(None);
            c
        })
        .collect();

    // The strip floor can never demand more tiles than the best candidate
    // yields — relax it to the achievable maximum so small images stay
    // feasible.
    let max_strips = cand
        .first()
        .map(|c| c.iter().map(|t| geom.strip_tiles(&[*t])).max().unwrap_or(1))
        .unwrap_or(1);
    let floor = min_strips.min(max_strips);

    struct Best {
        cost: f64,
        volume: i64,
        inner: i64,
        tiles: Vec<Option<i64>>,
        ws: usize,
        ratio: f64,
    }
    let mut best: Option<Best> = None;
    let mut assign = vec![None; ndims];
    enumerate(&cand, 0, &mut assign, &mut |tiles| {
        let ratio = geom.redundancy(tiles);
        if ratio >= opts.overlap_threshold {
            return;
        }
        if geom.strip_tiles(tiles) < floor {
            return;
        }
        let ws = geom.working_set(tiles, model);
        if ws > budget {
            return;
        }
        let cost = predict_group_cost(geom, tiles, model);
        let span = geom.spans(tiles);
        let volume: i64 = span.iter().product();
        let inner = *span.last().unwrap_or(&1);
        let better = match &best {
            None => true,
            Some(b) => {
                // Lower cost wins; then larger volume, wider inner dim,
                // lexicographically smaller assignment.
                (cost, b.volume, b.inner)
                    .partial_cmp(&(b.cost, volume, inner))
                    .map(|o| {
                        o == std::cmp::Ordering::Less
                            || (o == std::cmp::Ordering::Equal && tiles < b.tiles.as_slice())
                    })
                    .unwrap_or(false)
            }
        };
        if better {
            best = Some(Best {
                cost,
                volume,
                inner,
                tiles: tiles.to_vec(),
                ws,
                ratio,
            });
        }
    });

    let baseline = effective_tiles(&geom.sink_extents, opts);
    let base_ws = geom.working_set(&baseline, model);
    let base_ratio = geom.redundancy(&baseline);
    let base_feasible = base_ratio < opts.overlap_threshold
        && geom.strip_tiles(&baseline) >= floor
        && base_ws <= budget;

    match best {
        // The model only overrides the baseline when it predicts a clear
        // win (`MODEL_MARGIN`); predicted near-ties keep the
        // better-tested fixed shape.
        Some(b)
            if !base_feasible
                || b.cost < predict_group_cost(geom, &baseline, model) * (1.0 - MODEL_MARGIN) =>
        {
            TileChoice {
                tiles: b.tiles,
                working_set: b.ws,
                ratio: b.ratio,
                fallback: false,
            }
        }
        Some(_) => TileChoice {
            tiles: baseline,
            working_set: base_ws,
            ratio: base_ratio,
            fallback: false,
        },
        None => TileChoice {
            tiles: baseline,
            working_set: base_ws,
            ratio: base_ratio,
            fallback: true,
        },
    }
}

/// Depth-first enumeration of the candidate product space.
fn enumerate(
    cand: &[Vec<Option<i64>>],
    d: usize,
    assign: &mut Vec<Option<i64>>,
    visit: &mut impl FnMut(&[Option<i64>]),
) {
    if d == cand.len() {
        visit(assign);
        return;
    }
    for i in 0..cand[d].len() {
        assign[d] = cand[d][i];
        enumerate(cand, d + 1, assign, visit);
    }
}

/// An upper bound on any tile's working set in bytes, from the estimates
/// alone: every stage of the group at its full extent (twice when it
/// needs both a scratch slot and a full array, as [`GroupGeom::working_set`]
/// counts it), plus every out-of-group source each stage reads, in full.
fn whole_group_bytes(
    pipe: &Pipeline,
    graph: &PipelineGraph,
    group: &Group,
    opts: &CompileOptions,
) -> usize {
    let est = opts.estimates();
    let bytes_of = |src: Source| -> usize {
        source_extents(pipe, src, est)
            .iter()
            .fold(4usize, |b, &e| b.saturating_mul(e as usize))
    };
    let in_group = |f: &FuncId| group.stages.contains(f);
    let mut total = 0usize;
    for &f in &group.stages {
        let s = StageStorage::of(pipe, graph, &group.stages, f, opts.schedule);
        let copies = 1 + usize::from(s.needs_full && !s.direct);
        total = total.saturating_add(bytes_of(Source::Func(f)).saturating_mul(copies));
        let mut sources: Vec<Source> = Vec::new();
        visit_func_exprs(pipe.func(f), &mut |e| {
            if let Expr::Call(src, _) = e {
                let outside = !matches!(src, Source::Func(p) if in_group(p));
                if outside && !sources.contains(src) {
                    sources.push(*src);
                }
            }
        });
        for src in sources {
            total = total.saturating_add(bytes_of(src));
        }
    }
    total
}

/// The model's decision for one group: `None` for non-Normal groups,
/// with tiling off, or when the whole group already fits `model`'s budget
/// (then no shape changes what fits in cache, and the group keeps the
/// fixed baseline shape); the [`select_tiles`] choice otherwise. The fit
/// check runs first because it needs no [`GroupGeom`], the expensive part.
pub fn group_tiles(
    pipe: &Pipeline,
    graph: &PipelineGraph,
    group: &Group,
    opts: &CompileOptions,
    model: &CacheModel,
) -> Option<TileChoice> {
    if group.kind != GroupKindTag::Normal
        || !opts.schedule.tiles()
        || whole_group_bytes(pipe, graph, group, opts) <= model.budget()
    {
        return None;
    }
    let geom = GroupGeom::build(pipe, graph, group, opts)?;
    Some(select_tiles(&geom, opts, model))
}

/// Runs [`group_tiles`] against the process-wide [`CacheModel`] for every
/// group of a grouping. Emits a `tilemodel.choice` event plus
/// [`Counter::TileModelSelect`] / [`Counter::TileModelFallback`] per
/// modeled group.
pub(crate) fn choose_group_tiles(
    pipe: &Pipeline,
    graph: &PipelineGraph,
    groups: &[Group],
    opts: &CompileOptions,
    diag: &Diag,
) -> Vec<Option<TileChoice>> {
    let model = CacheModel::get();
    groups
        .iter()
        .map(|g| {
            let choice = group_tiles(pipe, graph, g, opts, &model)?;
            diag.count(
                if choice.fallback {
                    Counter::TileModelFallback
                } else {
                    Counter::TileModelSelect
                },
                1,
            );
            if diag.enabled() {
                let tiles: Vec<String> = choice
                    .tiles
                    .iter()
                    .map(|t| t.map_or("-".into(), |v| v.to_string()))
                    .collect();
                diag.event(
                    "tilemodel.choice",
                    vec![
                        ("sink", Value::from(pipe.func(g.sink).name.as_str())),
                        ("tiles", Value::from(tiles.join("x"))),
                        ("working_set", Value::from(choice.working_set)),
                        ("ratio", Value::Float(choice.ratio)),
                        ("fallback", Value::from(choice.fallback)),
                        ("budget", Value::from(model.budget())),
                    ],
                );
            }
            Some(choice)
        })
        .collect()
}

/// Extents of an out-of-group source at the estimates.
fn source_extents(pipe: &Pipeline, src: Source, est: &[i64]) -> Vec<i64> {
    match src {
        Source::Image(i) => pipe.images()[i.index()]
            .extents
            .iter()
            .map(|e| e.eval(est).max(1))
            .collect(),
        Source::Func(f) => pipe
            .func(f)
            .var_dom
            .dom
            .iter()
            .map(|iv| {
                let (lo, hi) = iv.eval(est);
                (hi - lo + 1).max(1)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_model_detect() {
        assert_eq!(parse_bytes("48K"), Some(48 * 1024));
        assert_eq!(parse_bytes("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_bytes("64"), Some(64));
        assert_eq!(parse_bytes("x"), None);
        let d = CacheModel::detect();
        assert!(d.l1 > 0 && d.l2 > 0 && d.line > 0);
        assert_eq!(CacheModel::get(), d);
        assert!(CacheModel::FALLBACK.budget() < CacheModel::FALLBACK.l2);
    }

    #[test]
    fn strip_floor_is_positive_and_capped() {
        let f = min_strip_tiles();
        assert!(f >= STRIP_TILES_PER_WORKER);
        assert!(f <= PAR_STRIPS as usize);
    }
}
