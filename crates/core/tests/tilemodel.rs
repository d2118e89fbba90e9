//! Property tests for the cache-model tile selector: across randomized
//! group geometries (stencil chains of varying depth, halo width, extent,
//! and dimensionality) and randomized cache models, every non-fallback
//! shape returned by `select_tiles` must satisfy all three of its
//! constraints — the cache budget, the parallelism floor (relaxed to what
//! the geometry can achieve), and the redundancy cap. Plus the rule that
//! decides whether the model acts at all: only on a group whose whole
//! domain overflows the budget.

use polymage_core::autotune::TILE_CANDIDATES;
use polymage_core::tilemodel::{group_tiles, min_strip_tiles, select_tiles, CacheModel, GroupGeom};
use polymage_core::{group_stages, CompileOptions, GroupKindTag, Schedule};
use polymage_graph::PipelineGraph;
use polymage_ir::*;
use proptest::prelude::*;

/// A chain of `depth` box stencils of radius `rad` over an `exts`-sized
/// domain (1-D, 2-D, or 3-D) — each stage shrinks its domain by `rad` per
/// side per level, the classic overlapped-tiling geometry.
fn stencil_chain(exts: &[i64], depth: i64, rad: i64) -> Pipeline {
    let mut p = PipelineBuilder::new("prop");
    let img = p.image(
        "I",
        ScalarType::Float,
        exts.iter().map(|&e| PAff::cst(e)).collect(),
    );
    let vars: Vec<VarId> = (0..exts.len()).map(|d| p.var(format!("x{d}"))).collect();
    let mut prev: Source = img.into();
    let mut last = None;
    for i in 1..=depth {
        let dom: Vec<(VarId, Interval)> = vars
            .iter()
            .zip(exts)
            .map(|(&v, &e)| (v, Interval::cst(i * rad, e - 1 - i * rad)))
            .collect();
        let f = p.func(format!("s{i}"), &dom, ScalarType::Float);
        // Axis cross of radius `rad`: center plus ±rad along each dim.
        let at = |offs: Vec<i64>| {
            Expr::at(
                prev,
                vars.iter()
                    .zip(&offs)
                    .map(|(&v, &o)| Expr::from(v) + Expr::Const(o as f64))
                    .collect::<Vec<_>>(),
            )
        };
        let mut sum = at(vec![0; exts.len()]);
        for d in 0..exts.len() {
            for s in [-rad, rad] {
                let mut offs = vec![0i64; exts.len()];
                offs[d] = s;
                sum = sum + at(offs);
            }
        }
        let n = (2 * exts.len() + 1) as f64;
        p.define(f, vec![Case::always(sum * (1.0 / n))]).unwrap();
        prev = f.into();
        last = Some(f);
    }
    p.finish(&[last.unwrap()]).unwrap()
}

/// The floor `select_tiles` actually enforces: the global parallelism
/// floor, relaxed to the best strip count any single-dim candidate (ladder
/// or untiled) can achieve on this geometry.
fn achievable_floor(geom: &GroupGeom) -> i64 {
    let ext = geom.sink_extents().first().copied().unwrap_or(1);
    let mut best = geom.strip_tiles(&[None]); // untiled strip count
    for &t in &TILE_CANDIDATES {
        if ext >= 2 * t {
            best = best.max((ext + t - 1) / t);
        }
    }
    (min_strip_tiles() as i64).min(best)
}

/// The model acts only on a group that overflows the budget: one 128×128
/// three-stage chain (input plus three stages, ~256 KiB whole) keeps the
/// fixed shape against a 2 MiB L2 and gets a model choice against 64 KiB.
#[test]
fn model_acts_only_when_the_whole_group_overflows_the_budget() {
    let pipe = stencil_chain(&[128, 128], 3, 1);
    let opts = CompileOptions::optimized(vec![]);
    let graph = PipelineGraph::build(&pipe).expect("graph");
    let grouping = group_stages(&pipe, &graph, &opts);
    assert_eq!(grouping.groups.len(), 1, "the chain fuses into one group");
    let group = &grouping.groups[0];
    let model = |l2| CacheModel {
        l1: 32 * 1024,
        l2,
        line: 64,
    };
    assert_eq!(
        group_tiles(&pipe, &graph, group, &opts, &model(2 << 20)),
        None
    );
    let choice = group_tiles(&pipe, &graph, group, &opts, &model(64 << 10))
        .expect("a group over the budget gets a decision");
    assert!(!choice.fallback, "{choice:?}");
    assert!(choice.working_set <= model(64 << 10).budget(), "{choice:?}");
    // Tiling off: no decision whatever the budget.
    let untiled = CompileOptions {
        schedule: Schedule::FuseOnly,
        ..opts.clone()
    };
    assert_eq!(
        group_tiles(&pipe, &graph, group, &untiled, &model(64 << 10)),
        None
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn selected_tiles_satisfy_all_constraints(
        ndims in 1usize..=3,
        ext0 in 48i64..1200,
        ext1 in 48i64..1200,
        ext2 in 3i64..64,
        depth in 1i64..=4,
        rad in 1i64..=2,
        thresh_i in 0usize..3,
        l2_kb in 256usize..4096,
    ) {
        let exts: Vec<i64> = [ext0, ext1, ext2][..ndims].to_vec();
        // Domains must survive `depth` shrinks of `rad` per side.
        prop_assume!(exts.iter().all(|&e| e > 2 * depth * rad + 4));
        let pipe = stencil_chain(&exts, depth, rad);
        let mut opts = CompileOptions::optimized(vec![]);
        opts.overlap_threshold = [0.2, 0.4, 0.5][thresh_i];
        let model = CacheModel {
            l1: 32 * 1024,
            l2: l2_kb * 1024,
            line: 64,
        };

        let graph = PipelineGraph::build(&pipe).expect("graph");
        let grouping = group_stages(&pipe, &graph, &opts);
        for g in &grouping.groups {
            if g.kind != GroupKindTag::Normal {
                continue;
            }
            let Some(geom) = GroupGeom::build(&pipe, &graph, g, &opts) else {
                continue;
            };
            let choice = select_tiles(&geom, &opts, &model);
            // The reported working set and ratio must be the model's own
            // numbers for the chosen shape, whatever path produced it.
            prop_assert_eq!(choice.working_set, geom.working_set(&choice.tiles, &model));
            prop_assert!((choice.ratio - geom.redundancy(&choice.tiles)).abs() < 1e-12);
            if choice.fallback {
                continue;
            }
            // (a) cache budget
            prop_assert!(
                choice.working_set <= model.budget(),
                "working set {} exceeds budget {} (tiles {:?}, exts {:?})",
                choice.working_set, model.budget(), choice.tiles, exts
            );
            // (b) parallelism floor (relaxed to the achievable maximum)
            let floor = achievable_floor(&geom);
            prop_assert!(
                geom.strip_tiles(&choice.tiles) >= floor,
                "strip tiles {} below floor {} (tiles {:?}, exts {:?})",
                geom.strip_tiles(&choice.tiles), floor,
                choice.tiles, exts
            );
            // (c) redundancy cap
            prop_assert!(
                choice.ratio < opts.overlap_threshold,
                "ratio {} at/over threshold {} (tiles {:?}, exts {:?})",
                choice.ratio, opts.overlap_threshold, choice.tiles, exts
            );
        }
    }
}
