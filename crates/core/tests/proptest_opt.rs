//! End-to-end bit-exactness of the kernel optimizer on random *pipelines*:
//! for randomly generated two-stage stencil pipelines, the compiled
//! (optimized) program must produce **bit identical** outputs to the naive
//! reference interpreter (lowering is structural and every rewrite is
//! bit-exact — the evaluation tree, and therefore every f32 rounding step,
//! is the same).

use polymage_core::interp::interpret;
use polymage_core::{compile, CompileOptions};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{Buffer, Engine, EvalMode, RunRequest};
use proptest::prelude::*;

/// A two-stage pipeline: a 3×3 border-guarded stencil with the given
/// coefficients (including division by a power of two, prime territory for
/// strength reduction), then a point-wise combine with the input. The
/// unary op index optionally wraps the stencil in abs/floor/sqrt∘abs.
fn stencil_pipeline(coeffs: [i64; 9], div: i64, unop: u8, scale: i64) -> Pipeline {
    let mut p = PipelineBuilder::new("prop");
    let (r, c) = (p.param("R"), p.param("C"));
    let img = p.image(
        "I",
        ScalarType::Float,
        vec![PAff::param(r) + 2, PAff::param(c) + 2],
    );
    let (x, y) = (p.var("x"), p.var("y"));
    let row = Interval::new(PAff::cst(0), PAff::param(r) + 1);
    let col = Interval::new(PAff::cst(0), PAff::param(c) + 1);
    let dom = [(x, row), (y, col)];
    let cond = Expr::from(x).ge(1)
        & Expr::from(x).le(Expr::Param(r))
        & Expr::from(y).ge(1)
        & Expr::from(y).le(Expr::Param(c));

    let mut sum: Option<Expr> = None;
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            let w = coeffs[((dx + 1) * 3 + (dy + 1)) as usize];
            if w == 0 {
                continue;
            }
            let t = Expr::at(img, [x + dx, y + dy]) * (w as f64);
            sum = Some(match sum {
                None => t,
                Some(s) => s + t,
            });
        }
    }
    let body = sum.unwrap_or(Expr::Const(1.0)) / (div as f64);
    let body = match unop % 4 {
        1 => body.abs(),
        2 => body.floor(),
        3 => body.abs().sqrt(),
        _ => body,
    };
    let f = p.func("f", &dom, ScalarType::Float);
    p.define(f, vec![Case::new(cond.clone(), body)]).unwrap();

    let g = p.func("g", &dom, ScalarType::Float);
    p.define(
        g,
        vec![Case::new(
            cond,
            Expr::at(f, [Expr::from(x), Expr::from(y)]) * (scale as f64)
                + Expr::at(img, [Expr::from(x), Expr::from(y)]),
        )],
    )
    .unwrap();
    p.finish(&[g]).unwrap()
}

fn noise_image(rect: Rect, seed: i64) -> Buffer {
    Buffer::zeros(rect).fill_with(|p| {
        let mut h = seed;
        for &c in p {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(c.wrapping_mul(1442695040888963407));
        }
        (((h >> 33) & 0xff) as f32) / 16.0 - 4.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Optimized program ≡ interpreter, bit-exactly, across schedules
    /// (base, opt, opt+vec).
    #[test]
    fn optimized_pipelines_bit_exact(
        coeffs in proptest::collection::vec(-3i64..4, 9..10),
        divp in 0u32..3,
        unop in 0u8..4,
        scale in -2i64..=2,
        rr in 9i64..24,
        cc in 9i64..24,
        seed in 0i64..1000,
    ) {
        let mut cf = [0i64; 9];
        cf.copy_from_slice(&coeffs);
        let pipe = stencil_pipeline(cf, 1i64 << divp, unop, scale);
        let params = vec![rr, cc];
        let input = noise_image(Rect::new(vec![(0, rr + 1), (0, cc + 1)]), seed);
        let inputs = [input];
        let expect = interpret(&pipe, &params, &inputs, 1).expect("interpreter");
        let engine = Engine::with_threads(1);
        let schedules = [
            CompileOptions::base(params.clone()).with_mode(EvalMode::Scalar),
            CompileOptions::optimized(params.clone()).with_mode(EvalMode::Scalar),
            CompileOptions::optimized(params.clone()),
        ];
        for (si, opts) in schedules.iter().enumerate() {
            let c = compile(&pipe, opts).expect("compile");
            let got = engine
                .submit(RunRequest::new(&c.program, &inputs))
                .and_then(|h| h.join())
                .expect("run");
            for (b_on, b_ref) in got.iter().zip(&expect) {
                for (i, (a, b)) in b_on.data.iter().zip(&b_ref.data).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "schedule {} elem {}: opt {} vs interp {}", si, i, a, b);
                }
            }
        }
    }
}
