//! Bit-exactness and footprint checks for liveness-driven storage folding
//! (`CompileOptions::storage_fold`): on randomized stencil *chains* — the
//! shape where scratchpad live ranges actually close early — the folded
//! program must produce **bit identical** outputs to the unfolded one (and
//! to the reference interpreter), while never using a larger per-worker
//! scratch arena.

use polymage_core::interp::interpret;
use polymage_core::{compile, CompileOptions};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{Buffer, Engine, EvalMode, RunRequest};
use proptest::prelude::*;

/// A depth-`k` chain of 3-point vertical stencils over a border-guarded
/// domain: `s0` reads the image, `s_i` reads `s_{i-1}` only, the last
/// stage is the live-out. Every intermediate dies as soon as its successor
/// is computed, so a fused group folds to two ping-pong slots.
fn chain_pipeline(depth: usize, weights: &[i64], div: i64) -> Pipeline {
    let mut p = PipelineBuilder::new("chain");
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

    let mut prev: Option<FuncId> = None;
    for i in 0..depth {
        let w0 = weights[i % weights.len()].max(1) as f64;
        let w1 = weights[(i + 1) % weights.len()].max(1) as f64;
        let body = match prev {
            None => {
                (Expr::at(img, [x + (-1), Expr::from(y)]) * w0
                    + Expr::at(img, [x + 1, Expr::from(y)]) * w1
                    + Expr::at(img, [Expr::from(x), Expr::from(y)]))
                    / (div as f64)
            }
            Some(f) => {
                (Expr::at(f, [x + (-1), Expr::from(y)]) * w0
                    + Expr::at(f, [x + 1, Expr::from(y)]) * w1
                    + Expr::at(f, [Expr::from(x), Expr::from(y)]))
                    / (div as f64)
            }
        };
        let f = p.func(format!("s{i}"), &dom, ScalarType::Float);
        p.define(f, vec![Case::new(cond.clone(), body)]).unwrap();
        prev = Some(f);
    }
    p.finish(&[prev.unwrap()]).unwrap()
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
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// storage_fold on ≡ storage_fold off ≡ interpreter, bit-exactly,
    /// across schedules and thread counts; the folded arena never grows.
    #[test]
    fn folded_pipelines_bit_exact(
        depth in 3usize..7,
        weights in proptest::collection::vec(1i64..4, 3..4),
        divp in 0u32..3,
        rr in 9i64..24,
        cc in 9i64..24,
        seed in 0i64..1000,
    ) {
        let pipe = chain_pipeline(depth, &weights, 1i64 << divp);
        let params = vec![rr, cc];
        let input = noise_image(Rect::new(vec![(0, rr + 1), (0, cc + 1)]), seed);
        let inputs = [input];
        let expect = interpret(&pipe, &params, &inputs).expect("interpreter");
        let engine = Engine::with_threads(3);
        let schedules = [
            CompileOptions::optimized(params.clone()).with_mode(EvalMode::Scalar),
            CompileOptions::optimized(params.clone()),
        ];
        for (si, base) in schedules.iter().enumerate() {
            let on = base.clone().with_storage_fold(true);
            let off = base.clone().with_storage_fold(false);
            let c_on = compile(&pipe, &on).expect("compile fold on");
            let c_off = compile(&pipe, &off).expect("compile fold off");
            prop_assert!(
                c_on.program.arena_bytes() <= c_off.program.arena_bytes(),
                "folding grew the arena: {} > {}",
                c_on.program.arena_bytes(),
                c_off.program.arena_bytes()
            );
            prop_assert!(
                c_on.report.peak_full_bytes <= c_off.report.peak_full_bytes,
                "folding raised the peak estimate"
            );
            for threads in [1usize, 3] {
                let [o_on, o_off] = [&c_on, &c_off].map(|c| {
                    engine
                        .submit(RunRequest::new(&c.program, &inputs).threads(threads))
                        .and_then(|h| h.join())
                        .expect("run")
                });
                for (b_on, (b_off, b_ref)) in
                    o_on.iter().zip(o_off.iter().zip(&expect))
                {
                    for (i, (a, b)) in b_on.data.iter().zip(&b_off.data).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(), b.to_bits(),
                            "schedule {} threads {} elem {}: fold {} vs unfold {}",
                            si, threads, i, a, b);
                    }
                    for (i, (a, b)) in b_on.data.iter().zip(&b_ref.data).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(), b.to_bits(),
                            "schedule {} threads {} elem {}: fold {} vs interp {}",
                            si, threads, i, a, b);
                    }
                }
            }
        }
    }
}

/// A deep chain must actually fold: intermediates in a fused group die
/// immediately, so the packed arena shrinks toward two ping-pong slots.
#[test]
fn deep_chain_folds_strictly() {
    let pipe = chain_pipeline(8, &[1, 2, 1], 4);
    let params = vec![64, 64];
    let on = compile(
        &pipe,
        &CompileOptions::optimized(params.clone()).with_storage_fold(true),
    )
    .unwrap();
    let off = compile(
        &pipe,
        &CompileOptions::optimized(params).with_storage_fold(false),
    )
    .unwrap();
    let (a_on, a_off) = (on.program.arena_bytes(), off.program.arena_bytes());
    assert!(
        a_on < a_off,
        "deep chain did not fold: {a_on} vs {a_off} arena bytes"
    );
    // Per-group reports agree with the packed arenas.
    let folded: usize = on
        .report
        .groups
        .iter()
        .map(|g| g.scratch_folded_bytes)
        .sum();
    assert_eq!(folded, a_on);
    assert!(on.report.groups.iter().any(|g| g.scratch_slots > 0));
}
