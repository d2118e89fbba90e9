//! Algorithm 1: iterative greedy grouping of stages (paper §3.5).
//!
//! Starting from one group per stage, the heuristic repeatedly merges a
//! group into its *single* child group when
//!
//! 1. the merged stages' schedules can be aligned and scaled so all
//!    intra-group dependence components are constant
//!    ([`polymage_poly::solve_alignment`]),
//! 2. every dimension left unaligned ("free") has a constant,
//!    parameter-independent extent (so it can be materialized whole inside
//!    a tile — e.g. color channels or the bilateral grid's intensity axis),
//!    and
//! 3. the estimated redundant-computation fraction for the configured tile
//!    sizes stays below the overlap threshold
//!    ([`polymage_poly::group_overlap`]).
//!
//! Candidate groups are visited largest-first (by domain volume under the
//! parameter estimates), matching the paper's `sortGroupsBySize`.
//! Reductions and self-referential stages always stay in singleton groups —
//! "our current implementation does not attempt to fuse reduction
//! operations" (§4, Bilateral Grid).

use crate::CompileOptions;
use polymage_diag::{Counter, Diag, Value};
use polymage_graph::PipelineGraph;
use polymage_ir::{FuncId, Pipeline};
use polymage_poly::{group_overlap, solve_alignment, DimMap};
use std::collections::BTreeSet;

/// Maximum total free-dimension extent a merged group may materialize per
/// tile (guards against fusing across large gathered dimensions).
const FREE_DIM_LIMIT: i64 = 256;

/// Execution class of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKindTag {
    /// Ordinary stages, overlap-tiled.
    Normal,
    /// A single reduction stage.
    Reduction,
    /// A single self-referential (time-iterated) stage.
    SelfRef,
}

/// A group of stages with its sink (the stage none of the others consume).
#[derive(Debug, Clone)]
pub struct Group {
    /// Member stages, in pipeline declaration order.
    pub stages: Vec<FuncId>,
    /// The sink stage (reference frame for alignment and tiling).
    pub sink: FuncId,
    /// Execution class.
    pub kind: GroupKindTag,
    /// Per sink dimension: (left, right) overlap in scheduled units —
    /// computed once by the grouping pass (the compiler's report reads it
    /// instead of re-solving alignment). Empty for non-[`GroupKindTag::Normal`]
    /// groups.
    pub overlap: Vec<(i64, i64)>,
    /// Estimated redundant-computation fraction for the configured tile
    /// sizes (`∏(τ+o)/∏τ − 1`); `0.0` for non-normal or untiled groups.
    pub overlap_ratio: f64,
}

/// The result of grouping: disjoint groups covering all stages, in a valid
/// execution order (producers' groups before consumers').
#[derive(Debug, Clone)]
pub struct Grouping {
    /// The groups, in execution order.
    pub groups: Vec<Group>,
}

impl Grouping {
    /// The group index containing stage `f`.
    pub fn group_of(&self, f: FuncId) -> usize {
        self.groups
            .iter()
            .position(|g| g.stages.contains(&f))
            .expect("stage belongs to a group")
    }
}

/// The per-group effective tile sizes: `Some(τ)` for tiled dims, `None` for
/// untiled. A dimension is tiled when requested and at least twice the tile
/// size. Under a schedule that does not tile, only the outer strip
/// dimension splits.
///
/// Uses the baseline sizes of `opts.tiles` — under [`crate::TileSpec::Auto`]
/// that is the fixed default shape, so grouping structure never depends on
/// the cache model's per-group decisions (which run *after* grouping).
/// Dimensions beyond the sizes given reuse the last one (paper
/// convention): `[32, 256]` on a 3-D domain means `[32, 256, 256]` before
/// the twice-the-extent rule filters each dimension.
pub(crate) fn effective_tiles(extents: &[i64], opts: &CompileOptions) -> Vec<Option<i64>> {
    let sizes = opts.tiles.baseline_sizes();
    let mut out = vec![None; extents.len()];
    if opts.schedule.tiles() {
        for (d, &ext) in extents.iter().enumerate() {
            let size = sizes.get(d).or(sizes.last());
            if let Some(&t) = size {
                if t > 0 && ext >= 2 * t {
                    out[d] = Some(t);
                }
            }
        }
    }
    strip_untiled_outer(extents, &mut out);
    out
}

/// Target strip count for parallelism when a domain's outer dimension is
/// not tiled.
pub(crate) const PAR_STRIPS: i64 = 128;

/// Strips an untiled outer dimension into about [`PAR_STRIPS`] strips, so
/// the group still runs in parallel.
pub(crate) fn strip_untiled_outer(extents: &[i64], tiles: &mut [Option<i64>]) {
    if let (Some(&ext), Some(t @ None)) = (extents.first(), tiles.first_mut()) {
        let strip = (ext + PAR_STRIPS - 1) / PAR_STRIPS;
        if strip < ext {
            *t = Some(strip.max(1));
        }
    }
}

/// Runs Algorithm 1.
pub fn group_stages(pipe: &Pipeline, graph: &PipelineGraph, opts: &CompileOptions) -> Grouping {
    group_stages_with(pipe, graph, opts, &Diag::noop())
}

/// Runs Algorithm 1, emitting a `grouping.merge` event (accept or reject,
/// with the computed overlap ratio vs. the threshold and stable stage uids)
/// plus [`Counter::GroupMergeAccept`]/[`Counter::GroupMergeReject`] through
/// `diag` for every candidate merge considered.
pub fn group_stages_with(
    pipe: &Pipeline,
    graph: &PipelineGraph,
    opts: &CompileOptions,
    diag: &Diag,
) -> Grouping {
    // Initial singleton groups.
    let mut groups: Vec<Group> = pipe
        .func_ids()
        .map(|f| {
            let kind = if pipe.func(f).is_reduction() {
                GroupKindTag::Reduction
            } else if graph.is_self_referential(f) {
                GroupKindTag::SelfRef
            } else {
                GroupKindTag::Normal
            };
            Group {
                stages: vec![f],
                sink: f,
                kind,
                overlap: Vec::new(),
                overlap_ratio: 0.0,
            }
        })
        .collect();

    if opts.schedule.fuses() {
        loop {
            let mut merged_any = false;
            // Candidates: Normal groups with exactly one child group, which
            // must also be Normal.
            let mut cands: Vec<usize> = Vec::new();
            for (gi, g) in groups.iter().enumerate() {
                if g.kind != GroupKindTag::Normal {
                    continue;
                }
                match child_groups(graph, &groups, gi) {
                    children if children.len() == 1 => {
                        let c = *children.iter().next().unwrap();
                        if groups[c].kind == GroupKindTag::Normal {
                            cands.push(gi);
                        }
                    }
                    _ => {}
                }
            }
            // Largest first (paper's sortGroupsBySize). Size heuristics
            // read the parameter *estimates* so grouping stays
            // size-independent and one plan serves every binding.
            cands.sort_by_key(|&gi| {
                std::cmp::Reverse(group_size(pipe, &groups[gi], opts.estimates()))
            });
            for gi in cands {
                let child = *child_groups(graph, &groups, gi)
                    .iter()
                    .next()
                    .expect("candidate has a child");
                let decision = merge_decision(pipe, &groups[gi], &groups[child], opts);
                emit_merge_event(pipe, diag, &groups[gi], &groups[child], opts, &decision);
                if let MergeDecision::Merged { overlap, ratio } = decision {
                    diag.count(Counter::GroupMergeAccept, 1);
                    let g = groups[gi].clone();
                    groups[child].stages.extend(g.stages);
                    groups[child].stages.sort();
                    groups[child].overlap = overlap;
                    groups[child].overlap_ratio = ratio;
                    groups.remove(gi);
                    merged_any = true;
                    break;
                } else {
                    diag.count(Counter::GroupMergeReject, 1);
                }
            }
            if !merged_any {
                break;
            }
        }
    }

    // Singleton Normal groups never went through `merge_decision`; their
    // overlap is identically zero (no intra-group dependences), so fill it
    // in without re-solving alignment.
    for g in &mut groups {
        if g.kind == GroupKindTag::Normal && g.overlap.is_empty() {
            g.overlap = vec![(0, 0); pipe.func(g.sink).var_dom.dom.len()];
        }
    }

    // Execution order: topological over the group DAG (producer groups
    // first), tie-broken by first stage id for determinism.
    let n = groups.len();
    let mut indeg = vec![0usize; n];
    let mut children: Vec<BTreeSet<usize>> = Vec::with_capacity(n);
    for gi in 0..n {
        let cs = child_groups(graph, &groups, gi);
        for &c in &cs {
            indeg[c] += 1;
        }
        children.push(cs);
    }
    let mut ready: BTreeSet<(usize, usize)> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| (groups[i].stages[0].index(), i))
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(&(key, i)) = ready.iter().next() {
        ready.remove(&(key, i));
        order.push(i);
        for &c in &children[i] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                ready.insert((groups[c].stages[0].index(), c));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "group DAG must be acyclic");
    let mut sorted = Vec::with_capacity(n);
    let mut taken: Vec<Option<Group>> = groups.into_iter().map(Some).collect();
    for i in order {
        sorted.push(taken[i].take().expect("each group emitted once"));
    }
    Grouping { groups: sorted }
}

/// Indices of groups that consume values produced by group `gi`.
fn child_groups(graph: &PipelineGraph, groups: &[Group], gi: usize) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for &f in &groups[gi].stages {
        for &c in graph.consumers(f) {
            let cg = groups
                .iter()
                .position(|g| g.stages.contains(&c))
                .expect("consumer grouped");
            if cg != gi {
                out.insert(cg);
            }
        }
    }
    out
}

/// Approximate group size from the parameter estimates (sum of stage
/// domain volumes).
fn group_size(pipe: &Pipeline, g: &Group, params: &[i64]) -> i64 {
    g.stages
        .iter()
        .map(|&f| {
            pipe.func(f)
                .var_dom
                .dom
                .iter()
                .map(|iv| {
                    let (lo, hi) = iv.eval(params);
                    (hi - lo + 1).max(0)
                })
                .product::<i64>()
        })
        .sum()
}

/// The outcome of evaluating the merge criteria for a candidate pair.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeDecision {
    /// All criteria passed: the merged group's per-dimension overlap (in the
    /// sink's scheduled frame) and the estimated redundancy ratio.
    Merged {
        /// Per sink dimension `(left, right)` overlap.
        overlap: Vec<(i64, i64)>,
        /// `∏(τ+o)/∏τ − 1` for the effective tile sizes.
        ratio: f64,
    },
    /// Alignment/scaling failed (a dependence component is not constant).
    AlignFailed,
    /// A free dimension is parameter-sized or the total free extent exceeds
    /// the materialization limit (`FREE_DIM_LIMIT`).
    FreeDimTooLarge,
    /// Alignment succeeded but the estimated redundancy ratio met or
    /// exceeded `opts.overlap_threshold`.
    OverThreshold {
        /// The computed ratio that tripped the threshold.
        ratio: f64,
    },
}

impl MergeDecision {
    /// Short machine-readable label for diagnostics payloads.
    pub fn label(&self) -> &'static str {
        match self {
            MergeDecision::Merged { .. } => "accept",
            MergeDecision::AlignFailed => "align-failed",
            MergeDecision::FreeDimTooLarge => "free-dim-too-large",
            MergeDecision::OverThreshold { .. } => "over-threshold",
        }
    }
}

/// Checks the three merge criteria for `parent ∪ child`.
pub fn merge_decision(
    pipe: &Pipeline,
    parent: &Group,
    child: &Group,
    opts: &CompileOptions,
) -> MergeDecision {
    let mut stages: Vec<FuncId> = parent.stages.clone();
    stages.extend(child.stages.iter().copied());
    let sink = child.sink;

    // Criterion 1: alignment and scaling must succeed (constant deps).
    let alignment = match solve_alignment(pipe, &stages, sink) {
        Ok(a) => a,
        Err(_) => return MergeDecision::AlignFailed,
    };

    // Criterion 1b: free dimensions must have constant extents small enough
    // to materialize per tile.
    for &f in &stages {
        let fd = pipe.func(f);
        let mut free_total = 1i64;
        for (d, m) in alignment.map(f).iter().enumerate() {
            if matches!(m, DimMap::Free) {
                let iv = &fd.var_dom.dom[d];
                match (iv.lo.as_const(), iv.hi.as_const()) {
                    (Some(lo), Some(hi)) => free_total *= (hi - lo + 1).max(1),
                    // Parameter-sized free dimension.
                    _ => return MergeDecision::FreeDimTooLarge,
                }
            }
        }
        if free_total > FREE_DIM_LIMIT {
            return MergeDecision::FreeDimTooLarge;
        }
    }

    // Criterion 2: estimated overlap below threshold for the configured
    // tile sizes.
    let overlap = match group_overlap(pipe, &stages, &alignment) {
        Ok(o) => o,
        Err(_) => return MergeDecision::AlignFailed,
    };
    let sink_extents: Vec<i64> = pipe
        .func(sink)
        .var_dom
        .dom
        .iter()
        .map(|iv| {
            let (lo, hi) = iv.eval(opts.estimates());
            (hi - lo + 1).max(0)
        })
        .collect();
    let tiles = effective_tiles(&sink_extents, opts);
    let tile_vec: Vec<i64> = tiles.iter().map(|t| t.unwrap_or(0)).collect();
    let ratio = overlap.overlap_ratio(&tile_vec);
    if ratio < opts.overlap_threshold {
        MergeDecision::Merged {
            overlap: overlap.dims.iter().map(|d| (d.left, d.right)).collect(),
            ratio,
        }
    } else {
        MergeDecision::OverThreshold { ratio }
    }
}

/// Records one candidate merge (accepted or rejected) as a diagnostics
/// event. All argument construction is skipped when `diag` is a no-op.
fn emit_merge_event(
    pipe: &Pipeline,
    diag: &Diag,
    parent: &Group,
    child: &Group,
    opts: &CompileOptions,
    decision: &MergeDecision,
) {
    if !diag.enabled() {
        return;
    }
    let mut args = vec![
        ("parent", Value::from(pipe.func(parent.sink).name.as_str())),
        ("child", Value::from(pipe.func(child.sink).name.as_str())),
        ("parent_uid", Value::UInt(pipe.stage_uid(parent.sink))),
        ("child_uid", Value::UInt(pipe.stage_uid(child.sink))),
        ("decision", Value::from(decision.label())),
        ("threshold", Value::Float(opts.overlap_threshold)),
    ];
    match decision {
        MergeDecision::Merged { ratio, .. } | MergeDecision::OverThreshold { ratio } => {
            args.push(("ratio", Value::Float(*ratio)));
        }
        _ => {}
    }
    diag.event("grouping.merge", args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;
    use polymage_ir::{stencil, Case, Expr, Interval, PAff, PipelineBuilder, ScalarType};

    fn opts() -> CompileOptions {
        CompileOptions::optimized(vec![512, 512])
    }

    /// Three chained 3×3 stencils: everything should fuse into one group.
    #[test]
    fn stencil_chain_fuses_completely() {
        let mut p = PipelineBuilder::new("t");
        let (r, c) = (p.param("R"), p.param("C"));
        let img = p.image("I", ScalarType::Float, vec![PAff::param(r), PAff::param(c)]);
        let (x, y) = (p.var("x"), p.var("y"));
        let mk_dom = |off: i64| {
            (
                Interval::new(PAff::cst(off), PAff::param(r) - 1 - off),
                Interval::new(PAff::cst(off), PAff::param(c) - 1 - off),
            )
        };
        let (d1r, d1c) = mk_dom(1);
        let a = p.func("a", &[(x, d1r), (y, d1c)], ScalarType::Float);
        p.define(
            a,
            vec![Case::always(stencil(
                img,
                &[x, y],
                1.0,
                &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            ))],
        )
        .unwrap();
        let (d2r, d2c) = mk_dom(2);
        let b = p.func("b", &[(x, d2r), (y, d2c)], ScalarType::Float);
        p.define(
            b,
            vec![Case::always(stencil(
                a,
                &[x, y],
                1.0,
                &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            ))],
        )
        .unwrap();
        let (d3r, d3c) = mk_dom(3);
        let o = p.func("o", &[(x, d3r), (y, d3c)], ScalarType::Float);
        p.define(
            o,
            vec![Case::always(stencil(
                b,
                &[x, y],
                1.0,
                &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            ))],
        )
        .unwrap();
        let pipe = p.finish(&[o]).unwrap();
        let graph = PipelineGraph::build(&pipe).unwrap();
        let g = group_stages(&pipe, &graph, &opts());
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].stages.len(), 3);
        assert_eq!(g.groups[0].sink, o);
    }

    /// A reduction between stages blocks fusion across it.
    #[test]
    fn reductions_stay_single() {
        let mut p = PipelineBuilder::new("t");
        let img = p.image("I", ScalarType::UChar, vec![PAff::cst(512), PAff::cst(512)]);
        let (x, y, b) = (p.var("x"), p.var("y"), p.var("b"));
        let d = Interval::cst(0, 511);
        let acc = polymage_ir::Accumulate {
            red_vars: vec![x, y],
            red_dom: vec![d.clone(), d.clone()],
            target: vec![Expr::at(img, [Expr::from(x), Expr::from(y)])],
            value: Expr::Const(1.0),
            op: polymage_ir::Reduction::Sum,
        };
        let hist = p
            .accumulator("hist", &[(b, Interval::cst(0, 255))], ScalarType::Int, acc)
            .unwrap();
        // cdf-like consumer reading hist dynamically via the image values
        let eq = p.func("eq", &[(x, d.clone()), (y, d)], ScalarType::Float);
        p.define(
            eq,
            vec![Case::always(Expr::at(
                hist,
                [Expr::at(img, [Expr::from(x), Expr::from(y)])],
            ))],
        )
        .unwrap();
        let pipe = p.finish(&[eq]).unwrap();
        let graph = PipelineGraph::build(&pipe).unwrap();
        let g = group_stages(&pipe, &graph, &opts());
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.groups[0].kind, GroupKindTag::Reduction);
        assert_eq!(g.groups[1].kind, GroupKindTag::Normal);
    }

    /// With a high threshold a deep chain fuses; with a tiny threshold it
    /// splits — the tile-size/threshold interaction the autotuner explores.
    #[test]
    fn threshold_controls_fusion_depth() {
        let mut p = PipelineBuilder::new("t");
        let img = p.image("I", ScalarType::Float, vec![PAff::cst(512), PAff::cst(512)]);
        let (x, y) = (p.var("x"), p.var("y"));
        let mut prev: polymage_ir::Source = img.into();
        let mut funcs = Vec::new();
        for i in 1..=8i64 {
            let d = Interval::cst(8, 503);
            let f = p.func(
                format!("s{i}"),
                &[(x, d.clone()), (y, d)],
                ScalarType::Float,
            );
            p.define(
                f,
                vec![Case::always(stencil(
                    prev,
                    &[x, y],
                    0.2,
                    &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
                ))],
            )
            .unwrap();
            funcs.push(f);
            prev = f.into();
        }
        let pipe = p.finish(&[*funcs.last().unwrap()]).unwrap();
        let graph = PipelineGraph::build(&pipe).unwrap();

        let mut o_loose = opts();
        o_loose.overlap_threshold = 2.0;
        let g = group_stages(&pipe, &graph, &o_loose);
        assert_eq!(g.groups.len(), 1, "loose threshold fuses all");

        let mut o_tight = opts();
        o_tight.overlap_threshold = 0.05;
        o_tight.tiles = crate::TileSpec::Fixed(vec![8, 8]);
        let g = group_stages(&pipe, &graph, &o_tight);
        assert!(g.groups.len() > 2, "tight threshold limits fusion");
    }

    #[test]
    fn no_fusion_when_disabled() {
        let mut p = PipelineBuilder::new("t");
        let img = p.image("I", ScalarType::Float, vec![PAff::cst(64)]);
        let x = p.var("x");
        let d = Interval::cst(1, 62);
        let a = p.func("a", &[(x, d.clone())], ScalarType::Float);
        p.define(a, vec![Case::always(Expr::at(img, [x + 0]))])
            .unwrap();
        let b = p.func("b", &[(x, d)], ScalarType::Float);
        p.define(
            b,
            vec![Case::always(Expr::at(a, [x - 1]) + Expr::at(a, [x + 1]))],
        )
        .unwrap();
        let pipe = p.finish(&[b]).unwrap();
        let graph = PipelineGraph::build(&pipe).unwrap();
        let o = CompileOptions {
            schedule: Schedule::TileOnly,
            ..opts()
        };
        let g = group_stages(&pipe, &graph, &o);
        assert_eq!(g.groups.len(), 2);
    }

    #[test]
    fn effective_tiles_rules() {
        let o = opts(); // tiles [32, 256]
                        // big 2-D: both tiled
        assert_eq!(
            effective_tiles(&[2048, 2048], &o),
            vec![Some(32), Some(256)]
        );
        // narrow second dim: untiled
        assert_eq!(effective_tiles(&[2048, 300], &o), vec![Some(32), None]);
        // third dim (channels) never tiled
        assert_eq!(
            effective_tiles(&[2048, 2048, 3], &o),
            vec![Some(32), Some(256), None]
        );
        // tiny outer dim: strip-partitioned for parallelism
        let t = effective_tiles(&[40, 4096], &o.clone().with_tiles(vec![64, 256]));
        assert_eq!(t[0], Some(1));
        assert_eq!(t[1], Some(256));
        // untiled mode: strips only
        let ob = CompileOptions {
            schedule: Schedule::FuseOnly,
            ..o.clone()
        };
        let t = effective_tiles(&[2048, 2048], &ob);
        assert_eq!(t[0], Some(16)); // 2048 / 128 strips
        assert_eq!(t[1], None);
    }

    /// Dimensions beyond `tile_sizes.len()` reuse the last specified size
    /// instead of silently staying untiled.
    #[test]
    fn effective_tiles_reuse_last_size_for_higher_dims() {
        let o = opts().with_tiles(vec![32, 64]);
        // dim 2 (1024) reuses 64; a narrow dim 3 (3 < 2·64) stays untiled
        assert_eq!(
            effective_tiles(&[2048, 2048, 1024, 3], &o),
            vec![Some(32), Some(64), Some(64), None]
        );
        // a single specified size applies to every wide dimension
        let o1 = opts().with_tiles(vec![16]);
        assert_eq!(
            effective_tiles(&[512, 512, 512], &o1),
            vec![Some(16), Some(16), Some(16)]
        );
    }

    /// Transposed access blocks fusion (alignment conflict).
    #[test]
    fn unalignable_pair_not_fused() {
        let mut p = PipelineBuilder::new("t");
        let (x, y) = (p.var("x"), p.var("y"));
        let d = Interval::cst(0, 511);
        let g0 = p.func("g0", &[(x, d.clone()), (y, d.clone())], ScalarType::Float);
        p.define(g0, vec![Case::always(Expr::from(x) + Expr::from(y))])
            .unwrap();
        let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
        p.define(
            f,
            vec![Case::always(
                Expr::at(g0, [Expr::from(x), Expr::from(y)])
                    + Expr::at(g0, [Expr::from(y), Expr::from(x)]),
            )],
        )
        .unwrap();
        let pipe = p.finish(&[f]).unwrap();
        let graph = PipelineGraph::build(&pipe).unwrap();
        let g = group_stages(&pipe, &graph, &opts());
        assert_eq!(g.groups.len(), 2);
    }
}
