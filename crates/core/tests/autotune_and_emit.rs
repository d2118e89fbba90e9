//! Tests for the autotuner (§3.8) and the C emitter (Fig. 7).

use polymage_core::autotune::{autotune, random_search, THRESHOLDS, TILE_CANDIDATES};
use polymage_core::{compile, emit_c, CompileOptions};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::Buffer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small 2-stage stencil pipeline for tuning experiments.
fn blur_chain() -> (Pipeline, Vec<Buffer>) {
    let mut p = PipelineBuilder::new("chain");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(192), PAff::cst(192)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d1 = Interval::cst(1, 190);
    let a = p.func("a", &[(x, d1.clone()), (y, d1)], ScalarType::Float);
    p.define(
        a,
        vec![Case::always(stencil(
            img,
            &[x, y],
            1.0 / 9.0,
            &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        ))],
    )
    .unwrap();
    let d2 = Interval::cst(2, 189);
    let b = p.func("b", &[(x, d2.clone()), (y, d2)], ScalarType::Float);
    p.define(
        b,
        vec![Case::always(stencil(
            a,
            &[x, y],
            1.0 / 9.0,
            &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        ))],
    )
    .unwrap();
    let pipe = p.finish(&[b]).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 191), (0, 191)]))
        .fill_with(|pt| ((pt[0] * 7 + pt[1] * 3) % 64) as f32);
    (pipe, vec![input])
}

#[test]
fn autotuner_sweeps_and_picks_a_best() {
    let (pipe, inputs) = blur_chain();
    let base = CompileOptions::optimized(vec![]);
    let out = autotune(&pipe, &base, &inputs, 2, 1, &[16, 64], &[0.2, 0.5]).unwrap();
    assert_eq!(out.records.len(), 2 * 2 * 2);
    let best = out.best_record();
    assert!(out.records.iter().all(|r| r.tn >= best.tn));
    // every record explored a configuration from the requested space
    for r in &out.records {
        assert!([16, 64].contains(&r.tile[0]) && [16, 64].contains(&r.tile[1]));
        assert!([0.2, 0.5].contains(&r.threshold));
    }
}

#[test]
fn random_search_stays_within_budget() {
    let (pipe, inputs) = blur_chain();
    let base = CompileOptions::optimized(vec![]);
    let mut rng = StdRng::seed_from_u64(7);
    let out = random_search(&pipe, &base, &inputs, 1, 1, 5, &mut rng).unwrap();
    assert_eq!(out.records.len(), 5);
    let best = out.best_record();
    assert!(out.records.iter().all(|r| r.tn >= best.tn));
}

#[test]
fn paper_parameter_space_constants() {
    // §3.8: seven tile sizes and three thresholds → 7²·3 = 147 configs.
    assert_eq!(TILE_CANDIDATES.len(), 7);
    assert_eq!(THRESHOLDS.len(), 3);
    assert_eq!(
        TILE_CANDIDATES.len() * TILE_CANDIDATES.len() * THRESHOLDS.len(),
        147
    );
}

#[test]
fn emitted_c_has_fig7_structure() {
    let (pipe, _) = blur_chain();
    let compiled = compile(&pipe, &CompileOptions::optimized(vec![])).unwrap();
    let c = emit_c(&compiled.program);
    // Fig. 7's landmarks: OpenMP-parallel strip loop over the tiles,
    // scratchpad declaration, ivdep-annotated inner loop, live-out
    // allocation, tile bounds clamped to the case rectangle.
    assert!(c.contains("#pragma omp parallel for"), "{c}");
    assert!(c.contains(" scratch, slot "), "{c}");
    assert!(c.contains("#pragma GCC ivdep"), "{c}");
    assert!(c.contains("calloc("), "{c}");
    assert!(c.contains("imin("), "{c}");
    assert!(c.contains("for (int t = strip[s]"), "{c}");
    // the stage expressions are rendered
    assert!(c.contains("0.1111"), "stencil weight should appear: {c}");
}

#[test]
fn emitted_c_mentions_reductions_and_scans() {
    // histogram → reduction comment; prefix-sum → sequential scan comment
    let mut p = PipelineBuilder::new("mix");
    let img = p.image("I", ScalarType::UChar, vec![PAff::cst(64)]);
    let (x, b) = (p.var("x"), p.var("b"));
    let acc = Accumulate {
        red_vars: vec![x],
        red_dom: vec![Interval::cst(0, 63)],
        target: vec![Expr::at(img, [Expr::from(x)])],
        value: Expr::Const(1.0),
        op: Reduction::Sum,
    };
    let h = p
        .accumulator("hist", &[(b, Interval::cst(0, 255))], ScalarType::Int, acc)
        .unwrap();
    let scan = p.func("scan", &[(b, Interval::cst(0, 255))], ScalarType::Float);
    p.define(
        scan,
        vec![
            Case::new(Expr::from(b).le(0), Expr::at(h, [Expr::from(b)])),
            Case::new(
                Expr::from(b).ge(1),
                Expr::at(scan, [b - 1]) + Expr::at(h, [Expr::from(b)]),
            ),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[scan]).unwrap();
    let compiled = compile(&pipe, &CompileOptions::optimized(vec![])).unwrap();
    let c = emit_c(&compiled.program);
    assert!(c.contains("reduction"), "{c}");
    assert!(c.contains("sequential scan"), "{c}");
}
