//! Table 1 of the paper: every computation pattern the DSL supports —
//! point-wise, stencil, upsample, downsample, histogram, time-iterated —
//! builds, passes the static checks, compiles, and computes the right
//! values under both the reference interpreter and the optimized program.

use polymage::core::interp::interpret;
use polymage::core::{compile, CompileOptions};
use polymage::ir::*;
use polymage::poly::Rect;
use polymage::vm::{Buffer, Engine, RunRequest};

fn run_both(pipe: &Pipeline, params: Vec<i64>, inputs: &[Buffer]) -> Vec<Buffer> {
    // The engine's two workers run every request at two threads.
    let expect = interpret(pipe, &params, inputs, 2).expect("interpret");
    let compiled = compile(pipe, &CompileOptions::optimized(params)).expect("compile");
    let got = Engine::with_threads(2)
        .submit(RunRequest::new(&compiled.program, inputs))
        .and_then(|h| h.join())
        .expect("run");
    for (g, w) in got.iter().zip(&expect) {
        assert_eq!(g.rect, w.rect);
        for (a, b) in g.data.iter().zip(&w.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }
    got
}

fn image_2d(n: i64) -> Buffer {
    Buffer::zeros(Rect::new(vec![(0, n - 1), (0, n - 1)]))
        .fill_with(|p| ((p[0] * 13 + p[1] * 7) % 32) as f32)
}

/// Point-wise: f(x, y) = g(x, y).
#[test]
fn pattern_pointwise() {
    let mut p = PipelineBuilder::new("pointwise");
    let img = p.image("g", ScalarType::Float, vec![PAff::cst(32), PAff::cst(32)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(0, 31);
    let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
    p.define(
        f,
        vec![Case::always(Expr::at(img, [Expr::from(x), Expr::from(y)]))],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = image_2d(32);
    let out = run_both(&pipe, vec![], std::slice::from_ref(&input));
    assert_eq!(out[0].data, input.data);
}

/// Stencil: f(x, y) = Σ g(x+σx, y+σy).
#[test]
fn pattern_stencil() {
    let mut p = PipelineBuilder::new("stencil");
    let img = p.image("g", ScalarType::Float, vec![PAff::cst(32), PAff::cst(32)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(1, 30);
    let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
    p.define(
        f,
        vec![Case::always(stencil(
            img,
            &[x, y],
            1.0,
            &[[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        ))],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = image_2d(32);
    let out = run_both(&pipe, vec![], std::slice::from_ref(&input));
    // spot-check one 3×3 neighborhood sum
    let mut s = 0.0;
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            s += input.at(&[5 + dx, 9 + dy]);
        }
    }
    assert!((out[0].at(&[5, 9]) - s).abs() < 1e-4);
}

/// Downsample: f(x, y) = Σ g(2x+σx, 2y+σy).
#[test]
fn pattern_downsample() {
    let mut p = PipelineBuilder::new("downsample");
    let img = p.image("g", ScalarType::Float, vec![PAff::cst(32), PAff::cst(32)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(1, 14);
    let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
    let mut e: Option<Expr> = None;
    for sx in -1i64..=1 {
        for sy in -1i64..=1 {
            let t = Expr::at(img, [2i64 * Expr::from(x) + sx, 2i64 * Expr::from(y) + sy]);
            e = Some(match e {
                None => t,
                Some(s) => s + t,
            });
        }
    }
    p.define(f, vec![Case::always(e.unwrap())]).unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = image_2d(32);
    run_both(&pipe, vec![], &[input]);
}

/// Upsample: f(x, y) = Σ g((x+σx)/2, (y+σy)/2).
#[test]
fn pattern_upsample() {
    let mut p = PipelineBuilder::new("upsample");
    let img = p.image("g", ScalarType::Float, vec![PAff::cst(16), PAff::cst(16)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(1, 28);
    let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
    let mut e: Option<Expr> = None;
    for sx in -1i64..=1 {
        for sy in -1i64..=1 {
            let t = Expr::at(img, [(x + sx) / 2, (y + sy) / 2]);
            e = Some(match e {
                None => t,
                Some(s) => s + t,
            });
        }
    }
    p.define(f, vec![Case::always(e.unwrap())]).unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = image_2d(16);
    run_both(&pipe, vec![], &[input]);
}

/// Histogram: f(g(x)) += 1 (Fig. 3 of the paper).
#[test]
fn pattern_histogram() {
    let mut p = PipelineBuilder::new("histogram");
    let (r, c) = (p.param("R"), p.param("C"));
    let img = p.image("I", ScalarType::UChar, vec![PAff::param(r), PAff::param(c)]);
    let (x, y, b) = (p.var("x"), p.var("y"), p.var("b"));
    let acc = Accumulate {
        red_vars: vec![x, y],
        red_dom: vec![
            Interval::new(PAff::cst(0), PAff::param(r) - 1),
            Interval::new(PAff::cst(0), PAff::param(c) - 1),
        ],
        target: vec![Expr::at(img, [Expr::from(x), Expr::from(y)])],
        value: Expr::Const(1.0),
        op: Reduction::Sum,
    };
    let hist = p
        .accumulator("hist", &[(b, Interval::cst(0, 255))], ScalarType::Int, acc)
        .unwrap();
    let pipe = p.finish(&[hist]).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 31), (0, 31)]))
        .fill_with(|p| ((p[0] * 13 + p[1] * 7) % 256) as f32);
    let out = run_both(&pipe, vec![32, 32], std::slice::from_ref(&input));
    let total: f32 = out[0].data.iter().sum();
    assert_eq!(total, 1024.0);
}

/// Time-iterated: f(t, x, y) = φ(f(t−1, x, y)).
#[test]
fn pattern_time_iterated() {
    let mut p = PipelineBuilder::new("time_iterated");
    let img = p.image("g", ScalarType::Float, vec![PAff::cst(16), PAff::cst(16)]);
    let (t, x, y) = (p.var("t"), p.var("x"), p.var("y"));
    let d = Interval::cst(0, 15);
    let f = p.func(
        "f",
        &[(t, Interval::cst(0, 3)), (x, d.clone()), (y, d)],
        ScalarType::Float,
    );
    // base case covers the whole plane; the iterated stencil case is
    // guarded to the interior so its reads stay inside the domain
    let interior = Expr::from(t).ge(1)
        & Expr::from(x).ge(1)
        & Expr::from(x).le(14)
        & Expr::from(y).ge(1)
        & Expr::from(y).le(14);
    p.define(
        f,
        vec![
            Case::new(
                Expr::from(t).le(0),
                Expr::at(img, [Expr::from(x), Expr::from(y)]),
            ),
            Case::new(
                interior,
                (Expr::at(f, [t - 1, x - 1, Expr::from(y)])
                    + Expr::at(f, [t - 1, x + 1, Expr::from(y)])
                    + Expr::at(f, [t - 1, Expr::from(x), y - 1])
                    + Expr::at(f, [t - 1, Expr::from(x), y + 1]))
                    * 0.25,
            ),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = image_2d(16);
    run_both(&pipe, vec![], &[input]);
}

/// Summed-area table (the paper cites Crow's SAT as expressible): a
/// self-referential scan with same-row dependences.
#[test]
fn pattern_summed_area_table() {
    let mut p = PipelineBuilder::new("sat");
    let img = p.image("g", ScalarType::Float, vec![PAff::cst(16), PAff::cst(16)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(0, 15);
    let f = p.func("f", &[(x, d.clone()), (y, d)], ScalarType::Float);
    let g_at = Expr::at(img, [Expr::from(x), Expr::from(y)]);
    p.define(
        f,
        vec![
            Case::new(
                Expr::from(x).eq_(0.0) & Expr::from(y).eq_(0.0),
                g_at.clone(),
            ),
            Case::new(
                Expr::from(x).eq_(0.0) & Expr::from(y).ge(1),
                g_at.clone() + Expr::at(f, [Expr::from(x), y - 1]),
            ),
            Case::new(
                Expr::from(x).ge(1) & Expr::from(y).eq_(0.0),
                g_at.clone() + Expr::at(f, [x - 1, Expr::from(y)]),
            ),
            Case::new(
                Expr::from(x).ge(1) & Expr::from(y).ge(1),
                g_at + Expr::at(f, [Expr::from(x), y - 1]) + Expr::at(f, [x - 1, Expr::from(y)])
                    - Expr::at(f, [x - 1, y - 1]),
            ),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = image_2d(16);
    let out = run_both(&pipe, vec![], std::slice::from_ref(&input));
    // SAT(15,15) = sum of all pixels
    let total: f32 = input.data.iter().sum();
    assert!((out[0].at(&[15, 15]) - total).abs() < 1e-2);
}
