//! Schedule-level guarantees: determinism, thread-count invariance, and
//! the structural properties the paper's §4 describes for its benchmarks.

use polymage::apps::{all_benchmarks, Benchmark, Scale};
use polymage::core::{compile, CompileOptions};
use polymage::vm::{Engine, EvalMode, RunRequest};

/// Compiling twice yields programs that execute bit-identically, and the
/// same program run twice is bit-identical (no hidden nondeterminism).
#[test]
fn compilation_and_execution_are_deterministic() {
    let engine = Engine::with_threads(2);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(1);
        let c1 = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
        let c2 = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
        let [r1, r2, r3] = [&c1, &c2, &c1].map(|c| {
            engine
                .submit(RunRequest::new(&c.program, &inputs))
                .and_then(|h| h.join())
                .unwrap()
        });
        for ((a, b2), c) in r1.iter().zip(&r2).zip(&r3) {
            assert_eq!(a.data, b2.data, "{}: cross-compile determinism", b.name());
            assert_eq!(a.data, c.data, "{}: re-run determinism", b.name());
        }
    }
}

/// Tiled groups produce bit-identical results for every thread count
/// (tiles are computed independently; only reductions may reassociate, and
/// those are compared with the interpreter at each thread count elsewhere).
#[test]
fn thread_count_invariance_outside_reductions() {
    let engine = Engine::with_threads(8);
    for b in all_benchmarks(Scale::Tiny) {
        if b.name() == "Bilateral Grid" {
            continue; // reductions reassociate across threads
        }
        let inputs = b.make_inputs(9);
        let c = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
        let run = |threads| {
            engine
                .submit(RunRequest::new(&c.program, &inputs).threads(threads))
                .and_then(|h| h.join())
                .unwrap()
        };
        let r1 = run(1);
        for threads in [2, 3, 5, 8] {
            let rn = run(threads);
            for (a, b2) in r1.iter().zip(&rn) {
                assert_eq!(a.data, b2.data, "{} @ {threads} threads", b.name());
            }
        }
    }
}

/// Scalar and vector evaluation modes agree bit-for-bit: chunking changes
/// batching, not the per-lane operations.
#[test]
fn scalar_and_vector_modes_agree_exactly() {
    let engine = Engine::with_threads(1);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(3);
        let v = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
        let s = compile(
            b.pipeline(),
            &CompileOptions::optimized(b.params()).with_mode(EvalMode::Scalar),
        )
        .unwrap();
        let [rv, rs] = [&v, &s].map(|c| {
            engine
                .submit(RunRequest::new(&c.program, &inputs))
                .and_then(|h| h.join())
                .unwrap()
        });
        for (a, b2) in rv.iter().zip(&rs) {
            assert_eq!(a.data, b2.data, "{}", b.name());
        }
    }
}

/// §4's structural claims about the compiler's schedules.
#[test]
fn paper_grouping_structure() {
    // Harris: point-wise stages inlined; one fused stencil group.
    let b = polymage::apps::harris::HarrisCorner::new(Scale::Small);
    let c = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
    // point-wise stages consumed point-wise are inlined; the products read
    // through the 3×3 box stencils stay materialized (§3's restriction)
    for name in ["det", "trace"] {
        assert!(
            c.report.inlined.iter().any(|s| s == name),
            "{name} should be inlined"
        );
    }
    for name in ["Ixx", "Ixy", "Iyy"] {
        assert!(
            !c.report.inlined.iter().any(|s| s == name),
            "{name} is stencil-consumed and must stay materialized"
        );
    }
    assert_eq!(c.report.groups.len(), 1, "all stencils fuse into one group");
    assert_eq!(c.report.groups[0].sink, "harris");

    // Camera: single big group + the LUT group.
    let b = polymage::apps::camera::CameraPipe::new(Scale::Small);
    let c = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
    assert_eq!(c.report.groups.len(), 2);
    assert!(c.report.group_of("curve").unwrap().stages.len() == 1);
    assert!(c.report.group_of("processed").unwrap().stages.len() >= 15);

    // Bilateral grid: the two reductions stay isolated.
    let b = polymage::apps::bilateral::BilateralGrid::new(Scale::Small);
    let c = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
    let red_groups = c
        .report
        .groups
        .iter()
        .filter(|g| matches!(g.kind, polymage::core::GroupKindTag::Reduction))
        .count();
    assert_eq!(red_groups, 2);

    // Pyramid blending: a large fused collapse group exists (Fig. 8).
    let b = polymage::apps::pyramid::PyramidBlend::new(Scale::Small);
    let c = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
    let max_group = c.report.group_sizes().into_iter().max().unwrap();
    assert!(
        max_group >= 10,
        "expected a large fused group, got {max_group}"
    );
}

/// The report's storage accounting: optimized schedules allocate less full
/// storage than the base schedule for fused pipelines.
#[test]
fn storage_optimization_reduces_full_buffers() {
    let b = polymage::apps::harris::HarrisCorner::new(Scale::Small);
    let opt = compile(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
    let base = compile(b.pipeline(), &CompileOptions::base(b.params())).unwrap();
    let opt_full = opt.program.full_bytes();
    let base_full = base.program.full_bytes();
    assert!(
        opt_full * 2 < base_full,
        "opt {opt_full}B should be well under base {base_full}B"
    );
    // and the scratchpads are small relative to what they replace
    assert!(opt.program.scratch_bytes() * 4 < base_full);
}

/// Degenerate sizes: pipelines whose deepest stages have empty domains at
/// small parameter values still compile and run (the empty stages are
/// skipped; consumers of undefined regions read zeros).
#[test]
fn empty_deep_stages_are_skipped() {
    use polymage::ir::*;
    let mut p = PipelineBuilder::new("deep");
    let n = p.param("N");
    let img = p.image("I", ScalarType::Float, vec![PAff::param(n)]);
    let x = p.var("x");
    // full-res stage
    let a = p.func(
        "a",
        &[(x, Interval::new(PAff::cst(0), PAff::param(n) - 1))],
        ScalarType::Float,
    );
    p.define(a, vec![Case::always(Expr::at(img, [x + 0]))])
        .unwrap();
    // a "level" whose domain [4, N/8 − 1] is empty for N < 40
    let b = p.func(
        "b",
        &[(x, Interval::new(PAff::cst(4), PAff::param(n) / 8 - 1))],
        ScalarType::Float,
    );
    p.define(b, vec![Case::always(Expr::at(a, [Expr::from(x) * 4]))])
        .unwrap();
    // output reads b where defined, clamped dynamic index keeps it legal
    let out = p.func(
        "out",
        &[(x, Interval::new(PAff::cst(4), PAff::param(n) / 8 - 1))],
        ScalarType::Float,
    );
    p.define(out, vec![Case::always(Expr::at(b, [x + 0]) + 1.0)])
        .unwrap();
    let pipe = p.finish(&[a, out]).unwrap();
    let engine = Engine::with_threads(2);
    for n_val in [16i64, 32, 33, 64, 100] {
        let compiled = compile(&pipe, &CompileOptions::optimized(vec![n_val]))
            .unwrap_or_else(|e| panic!("N={n_val}: {e}"));
        let input = polymage::vm::Buffer::zeros(polymage::poly::Rect::new(vec![(0, n_val - 1)]))
            .fill_with(|p| p[0] as f32);
        let expect =
            polymage::core::interp::interpret(&pipe, &[n_val], std::slice::from_ref(&input), 2)
                .unwrap();
        let got = engine
            .submit(RunRequest::new(&compiled.program, &[input]))
            .and_then(|h| h.join())
            .unwrap();
        for (g, w) in got.iter().zip(&expect) {
            assert_eq!(g.rect, w.rect, "N={n_val}");
            assert_eq!(g.data, w.data, "N={n_val}");
        }
    }
}
