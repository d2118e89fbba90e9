//! The compiler's central correctness property: for every pipeline and
//! every schedule configuration (every `Schedule`, vector/scalar, several
//! tile shapes and thresholds, any thread count), the compiled program
//! computes the same function as the naive reference interpreter at the
//! same thread count, bit for bit.

use polymage_core::interp::interpret;
use polymage_core::{compile, CompileOptions, Schedule};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{Buffer, Engine, EvalMode, RunRequest};

fn check_all_configs(pipe: &Pipeline, params: Vec<i64>, inputs: &[Buffer]) {
    let engine = Engine::with_threads(3);
    let expects = [1, 2, 3].map(|n| (n, interpret(pipe, &params, inputs, n).expect("interp")));
    let schedules = Schedule::ALL.map(|schedule| CompileOptions {
        schedule,
        ..CompileOptions::optimized(params.clone())
    });
    let others = [
        CompileOptions::optimized(params.clone()).with_mode(EvalMode::Scalar),
        CompileOptions::optimized(params.clone()).with_tiles(vec![8, 8]),
        CompileOptions::optimized(params.clone())
            .with_tiles(vec![16, 64])
            .with_threshold(0.2),
        CompileOptions::base(params.clone()).with_mode(EvalMode::Scalar),
    ];
    for (ci, opts) in schedules.iter().chain(&others).enumerate() {
        let compiled = compile(pipe, opts)
            .unwrap_or_else(|e| panic!("config {ci} failed to compile {}: {e}", pipe.name()));
        for (threads, expect) in &expects {
            let got = engine
                .submit(RunRequest::new(&compiled.program, inputs).threads(*threads))
                .and_then(|h| h.join())
                .unwrap_or_else(|e| panic!("config {ci} run: {e}"));
            assert_eq!(got.len(), expect.len());
            for (o, (g, w)) in got.iter().zip(expect).enumerate() {
                assert_eq!(g.rect, w.rect, "output {o} shape");
                for (i, (a, b)) in g.data.iter().zip(&w.data).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "pipeline {} config {ci} threads {threads} output {o} \
                         elem {i}: compiled {a} vs interpreted {b}",
                        pipe.name()
                    );
                }
            }
        }
    }
}

fn noise_image(rect: Rect, seed: i64) -> Buffer {
    Buffer::zeros(rect).fill_with(|p| {
        let mut h = seed;
        for &c in p {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(c.wrapping_mul(1442695040888963407));
        }
        ((h >> 33) & 0xff) as f32
    })
}

/// Fig. 1: full Harris corner detection at a reduced size.
#[test]
fn harris_corner_detection() {
    let mut p = PipelineBuilder::new("harris");
    let (r, c) = (p.param("R"), p.param("C"));
    let img = p.image(
        "I",
        ScalarType::Float,
        vec![PAff::param(r) + 2, PAff::param(c) + 2],
    );
    let (x, y) = (p.var("x"), p.var("y"));
    let row = Interval::new(PAff::cst(0), PAff::param(r) + 1);
    let col = Interval::new(PAff::cst(0), PAff::param(c) + 1);
    let dom = [(x, row.clone()), (y, col.clone())];
    let cond = Expr::from(x).ge(1)
        & Expr::from(x).le(Expr::Param(r))
        & Expr::from(y).ge(1)
        & Expr::from(y).le(Expr::Param(c));
    let condb = Expr::from(x).ge(2)
        & Expr::from(x).le(Expr::Param(r) - 1.0)
        & Expr::from(y).ge(2)
        & Expr::from(y).le(Expr::Param(c) - 1.0);

    let iy = p.func("Iy", &dom, ScalarType::Float);
    p.define(
        iy,
        vec![Case::new(
            cond.clone(),
            stencil(
                img,
                &[x, y],
                1.0 / 12.0,
                &[[-1, -2, -1], [0, 0, 0], [1, 2, 1]],
            ),
        )],
    )
    .unwrap();
    let ix = p.func("Ix", &dom, ScalarType::Float);
    p.define(
        ix,
        vec![Case::new(
            cond.clone(),
            stencil(
                img,
                &[x, y],
                1.0 / 12.0,
                &[[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]],
            ),
        )],
    )
    .unwrap();
    let at = |f: FuncId| Expr::at(f, [Expr::from(x), Expr::from(y)]);
    let ixx = p.func("Ixx", &dom, ScalarType::Float);
    p.define(ixx, vec![Case::new(cond.clone(), at(ix) * at(ix))])
        .unwrap();
    let iyy = p.func("Iyy", &dom, ScalarType::Float);
    p.define(iyy, vec![Case::new(cond.clone(), at(iy) * at(iy))])
        .unwrap();
    let ixy = p.func("Ixy", &dom, ScalarType::Float);
    p.define(ixy, vec![Case::new(cond.clone(), at(ix) * at(iy))])
        .unwrap();
    let box3 = [[1i64, 1, 1], [1, 1, 1], [1, 1, 1]];
    let sxx = p.func("Sxx", &dom, ScalarType::Float);
    p.define(
        sxx,
        vec![Case::new(condb.clone(), stencil(ixx, &[x, y], 1.0, &box3))],
    )
    .unwrap();
    let syy = p.func("Syy", &dom, ScalarType::Float);
    p.define(
        syy,
        vec![Case::new(condb.clone(), stencil(iyy, &[x, y], 1.0, &box3))],
    )
    .unwrap();
    let sxy = p.func("Sxy", &dom, ScalarType::Float);
    p.define(
        sxy,
        vec![Case::new(condb.clone(), stencil(ixy, &[x, y], 1.0, &box3))],
    )
    .unwrap();
    let det = p.func("det", &dom, ScalarType::Float);
    p.define(
        det,
        vec![Case::new(
            condb.clone(),
            at(sxx) * at(syy) - at(sxy) * at(sxy),
        )],
    )
    .unwrap();
    let trace = p.func("trace", &dom, ScalarType::Float);
    p.define(trace, vec![Case::new(condb.clone(), at(sxx) + at(syy))])
        .unwrap();
    let harris = p.func("harris", &dom, ScalarType::Float);
    p.define(
        harris,
        vec![Case::new(condb, at(det) - 0.04 * at(trace) * at(trace))],
    )
    .unwrap();
    let pipe = p.finish(&[harris]).unwrap();

    let (rr, cc) = (61i64, 67i64);
    let input = noise_image(Rect::new(vec![(0, rr + 1), (0, cc + 1)]), 42);
    // Values up to ~255; products of sums of squares reach ~1e9 — scale the
    // input down to keep f32 reassociation error in check.
    let input = Buffer::from_vec(
        input.rect.clone(),
        input.data.iter().map(|v| v / 255.0).collect(),
    );
    check_all_configs(&pipe, vec![rr, cc], &[input]);
}

/// Up/down-sampling chain (Fig. 6 pattern), exercising scaled alignment.
#[test]
fn sampling_pyramid_chain() {
    let mut p = PipelineBuilder::new("pyr1d");
    let n = p.param("N");
    let img = p.image("in", ScalarType::Float, vec![PAff::param(n)]);
    let x = p.var("x");
    let full = Interval::new(PAff::cst(0), PAff::param(n) - 1);
    let f = p.func("f", &[(x, full.clone())], ScalarType::Float);
    p.define(f, vec![Case::always(Expr::at(img, [x + 0]))])
        .unwrap();
    // down(x) = (f(2x) + f(2x+1)) / 2 over [0, N/2 - 1]
    let half = Interval::new(PAff::cst(0), PAff::param(n) / 2 - 1);
    let down = p.func("down", &[(x, half.clone())], ScalarType::Float);
    p.define(
        down,
        vec![Case::always(
            (Expr::at(f, [2i64 * Expr::from(x)]) + Expr::at(f, [2i64 * Expr::from(x) + 1])) * 0.5,
        )],
    )
    .unwrap();
    // down2 over [0, N/4 - 1]
    let quarter = Interval::new(PAff::cst(0), PAff::param(n) / 4 - 1);
    let down2 = p.func("down2", &[(x, quarter)], ScalarType::Float);
    p.define(
        down2,
        vec![Case::always(
            (Expr::at(down, [2i64 * Expr::from(x)]) + Expr::at(down, [2i64 * Expr::from(x) + 1]))
                * 0.5,
        )],
    )
    .unwrap();
    // up(x) = down2(x/2) over [0, N/2 - 1]
    let up = p.func("up", &[(x, half)], ScalarType::Float);
    p.define(up, vec![Case::always(Expr::at(down2, [Expr::from(x) / 2]))])
        .unwrap();
    // out(x) = f-ish(x) − up(x/2): laplacian-like over full domain
    let out = p.func("out", &[(x, full)], ScalarType::Float);
    p.define(
        out,
        vec![Case::always(
            Expr::at(f, [x + 0]) - Expr::at(up, [Expr::from(x) / 2]),
        )],
    )
    .unwrap();
    let pipe = p.finish(&[out]).unwrap();
    let input = noise_image(Rect::new(vec![(0, 255)]), 7);
    check_all_configs(&pipe, vec![256], &[input]);
}

/// Histogram + LUT consumption (dynamic indices on both sides).
#[test]
fn histogram_equalization_like() {
    let mut p = PipelineBuilder::new("histeq");
    let (r, c) = (p.param("R"), p.param("C"));
    let img = p.image("I", ScalarType::UChar, vec![PAff::param(r), PAff::param(c)]);
    let (x, y, b) = (p.var("x"), p.var("y"), p.var("b"));
    let row = Interval::new(PAff::cst(0), PAff::param(r) - 1);
    let col = Interval::new(PAff::cst(0), PAff::param(c) - 1);
    let bins = Interval::cst(0, 255);
    let acc = Accumulate {
        red_vars: vec![x, y],
        red_dom: vec![row.clone(), col.clone()],
        target: vec![Expr::at(img, [Expr::from(x), Expr::from(y)])],
        value: Expr::Const(1.0),
        op: Reduction::Sum,
    };
    let hist = p
        .accumulator("hist", &[(b, bins.clone())], ScalarType::Int, acc)
        .unwrap();
    // a tiny "lut" derived from the histogram (not a real CDF — enough to
    // exercise dynamic reads of a reduction's output)
    let lut = p.func("lut", &[(b, bins)], ScalarType::Float);
    p.define(
        lut,
        vec![Case::always(
            Expr::at(hist, [Expr::from(b)]) * 0.5 + Expr::from(b),
        )],
    )
    .unwrap();
    let out = p.func("out", &[(x, row), (y, col)], ScalarType::Float);
    p.define(
        out,
        vec![Case::always(Expr::at(
            lut,
            [Expr::at(img, [Expr::from(x), Expr::from(y)])],
        ))],
    )
    .unwrap();
    let pipe = p.finish(&[out]).unwrap();
    let input = noise_image(Rect::new(vec![(0, 59), (0, 77)]), 3);
    check_all_configs(&pipe, vec![60, 78], &[input]);
}

/// Bilateral Grid's shape: pixel *values* (not counts) summed into
/// intensity × column bins, so every bin's float sum rounds differently
/// under a different association. The engine splits the rows into one
/// partial per requested thread and the interpreter must split them the
/// same way: row counts below, equal to and not divisible by the thread
/// counts 1, 2 and 3.
#[test]
fn float_scatter_sum_splits_like_the_engine() {
    let mut p = PipelineBuilder::new("grid");
    let r = p.param("R");
    let img = p.image("I", ScalarType::Float, vec![PAff::param(r), PAff::cst(29)]);
    let (x, y, b, g) = (p.var("x"), p.var("y"), p.var("b"), p.var("g"));
    let pixel = Expr::at(img, [Expr::from(x), Expr::from(y)]);
    let acc = Accumulate {
        red_vars: vec![x, y],
        red_dom: vec![
            Interval::new(PAff::cst(0), PAff::param(r) - 1),
            Interval::cst(0, 28),
        ],
        target: vec![pixel.clone() / 64.0, Expr::from(y) / 4.0],
        value: pixel * 0.37 + 0.011,
        op: Reduction::Sum,
    };
    let dims = [(b, Interval::cst(0, 3)), (g, Interval::cst(0, 7))];
    let grid = p
        .accumulator("grid", &dims, ScalarType::Float, acc)
        .unwrap();
    let pipe = p.finish(&[grid]).unwrap();
    for rows in [1, 2, 3, 7] {
        let input = noise_image(Rect::new(vec![(0, rows - 1), (0, 28)]), rows);
        check_all_configs(&pipe, vec![rows], &[input]);
    }
}

/// Multiple live-outs from one fused group.
#[test]
fn multiple_live_outs() {
    let mut p = PipelineBuilder::new("multi");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(64), PAff::cst(64)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(1, 62);
    let blur = p.func("blur", &[(x, d.clone()), (y, d.clone())], ScalarType::Float);
    p.define(
        blur,
        vec![Case::always(stencil(
            img,
            &[x, y],
            1.0 / 9.0,
            &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        ))],
    )
    .unwrap();
    let d2 = Interval::cst(2, 61);
    let edge = p.func("edge", &[(x, d2.clone()), (y, d2)], ScalarType::Float);
    p.define(
        edge,
        vec![Case::always(
            Expr::at(img, [Expr::from(x), Expr::from(y)])
                - Expr::at(blur, [Expr::from(x), Expr::from(y)]),
        )],
    )
    .unwrap();
    let pipe = p.finish(&[blur, edge]).unwrap();
    let input = noise_image(Rect::new(vec![(0, 63), (0, 63)]), 11);
    check_all_configs(&pipe, vec![], &[input]);
}

/// Color image: 3-D stages with a small innermost channel dimension.
#[test]
fn color_pipeline_three_dims() {
    let mut p = PipelineBuilder::new("color");
    let (r, c) = (p.param("R"), p.param("C"));
    let img = p.image(
        "I",
        ScalarType::Float,
        vec![PAff::param(r), PAff::param(c), PAff::cst(3)],
    );
    let (x, y, ch) = (p.var("x"), p.var("y"), p.var("ch"));
    let row = Interval::new(PAff::cst(1), PAff::param(r) - 2);
    let col = Interval::new(PAff::cst(1), PAff::param(c) - 2);
    let chans = Interval::cst(0, 2);
    let blur = p.func(
        "blur",
        &[(x, row.clone()), (y, col.clone()), (ch, chans.clone())],
        ScalarType::Float,
    );
    // 3×3 spatial box per channel
    let mut sum = None;
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            let t = Expr::at(img, [x + dx, y + dy, Expr::from(ch)]);
            sum = Some(match sum {
                None => t,
                Some(s) => s + t,
            });
        }
    }
    p.define(blur, vec![Case::always(sum.unwrap() * (1.0 / 9.0))])
        .unwrap();
    let sharp = p.func(
        "sharp",
        &[(x, row), (y, col), (ch, chans)],
        ScalarType::Float,
    );
    p.define(
        sharp,
        vec![Case::always(
            Expr::at(img, [Expr::from(x), Expr::from(y), Expr::from(ch)]) * 1.5
                - Expr::at(blur, [Expr::from(x), Expr::from(y), Expr::from(ch)]) * 0.5,
        )],
    )
    .unwrap();
    let pipe = p.finish(&[sharp]).unwrap();
    let input = noise_image(Rect::new(vec![(0, 47), (0, 53), (0, 2)]), 23);
    check_all_configs(&pipe, vec![48, 54], &[input]);
}

/// Time-iterated stage (sequential scan) feeding a stencil.
#[test]
fn time_iterated_then_stencil() {
    let mut p = PipelineBuilder::new("jacobi");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(64)]);
    let (t, x) = (p.var("t"), p.var("x"));
    let it = p.func(
        "iter",
        &[(t, Interval::cst(0, 4)), (x, Interval::cst(0, 63))],
        ScalarType::Float,
    );
    p.define(
        it,
        vec![
            Case::new(Expr::from(t).le(0), Expr::at(img, [Expr::from(x)])),
            Case::new(
                Expr::from(t).ge(1) & Expr::from(x).ge(1) & Expr::from(x).le(62),
                (Expr::at(it, [t - 1, x - 1]) + Expr::at(it, [t - 1, x + 1])) * 0.5,
            ),
        ],
    )
    .unwrap();
    let out = p.func("out", &[(x, Interval::cst(1, 62))], ScalarType::Float);
    p.define(
        out,
        vec![Case::always(
            Expr::at(it, [Expr::i(4), x - 1]) + Expr::at(it, [Expr::i(4), x + 1]),
        )],
    )
    .unwrap();
    let pipe = p.finish(&[out]).unwrap();
    let input = noise_image(Rect::new(vec![(0, 63)]), 99);
    check_all_configs(&pipe, vec![], &[input]);
}

/// Saturating UChar stores along the pipeline.
#[test]
fn uchar_saturation_pipeline() {
    let mut p = PipelineBuilder::new("sat");
    let img = p.image("I", ScalarType::UChar, vec![PAff::cst(64)]);
    let x = p.var("x");
    let d = Interval::cst(0, 63);
    let boost = p.func("boost", &[(x, d.clone())], ScalarType::UChar);
    p.define(boost, vec![Case::always(Expr::at(img, [x + 0]) * 2.0)])
        .unwrap();
    let out = p.func("out", &[(x, d)], ScalarType::Float);
    p.define(out, vec![Case::always(Expr::at(boost, [x + 0]) + 0.5)])
        .unwrap();
    let pipe = p.finish(&[out]).unwrap();
    let input = noise_image(Rect::new(vec![(0, 63)]), 5);
    check_all_configs(&pipe, vec![], &[input]);
}

/// The compiler rejects out-of-bounds specifications.
#[test]
fn bounds_violation_rejected() {
    let mut p = PipelineBuilder::new("bad");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(16)]);
    let x = p.var("x");
    let f = p.func("f", &[(x, Interval::cst(0, 15))], ScalarType::Float);
    p.define(f, vec![Case::always(Expr::at(img, [x + 1]))])
        .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let err = compile(&pipe, &CompileOptions::optimized(vec![])).unwrap_err();
    assert!(matches!(err, polymage_core::CompileError::Bounds(_)));
}

/// Wrong parameter count is a compile error.
#[test]
fn missing_params_rejected() {
    let mut p = PipelineBuilder::new("params");
    let n = p.param("N");
    let x = p.var("x");
    let f = p.func(
        "f",
        &[(x, Interval::new(PAff::cst(0), PAff::param(n)))],
        ScalarType::Float,
    );
    p.define(f, vec![Case::always(Expr::from(x))]).unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let err = compile(&pipe, &CompileOptions::optimized(vec![])).unwrap_err();
    match err {
        polymage_core::CompileError::ParamMismatch {
            ref pipeline,
            expected,
            got,
            ref missing,
            ref extra,
        } => {
            assert_eq!(pipeline, "params");
            assert_eq!((expected, got), (1, 0));
            assert_eq!(missing, &[(0, "N".to_string())]);
            assert!(extra.is_empty());
            assert!(err.to_string().contains("`N` (#0)"));
        }
        other => panic!("expected ParamMismatch, got {other:?}"),
    }
}
