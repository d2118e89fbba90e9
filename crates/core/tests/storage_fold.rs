//! Bit-exactness and footprint checks for liveness-driven storage folding:
//! on randomized stencil *chains* — the shape where scratchpad live ranges
//! actually close early — the folded program must produce **bit
//! identical** outputs to the reference interpreter, while never using a
//! larger per-worker scratch arena than one private slot per scratchpad
//! or a higher peak than holding every full buffer for the whole run.

use polymage_core::interp::interpret;
use polymage_core::{compile, CompileOptions};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{Buffer, Engine, EvalMode, GroupKind, Program, RunRequest, ScratchSlots};
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

/// The per-worker arena with one private slot per scratchpad.
fn unfolded_arena_bytes(prog: &Program) -> usize {
    prog.groups
        .iter()
        .map(|g| match &g.kind {
            GroupKind::Tiled(tg) => ScratchSlots::unfolded(&tg.stages, &prog.buffers).arena_bytes(),
            _ => 0,
        })
        .sum()
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
    /// Folded program ≡ interpreter, bit-exactly, across schedules and
    /// thread counts; the folded arena never grows.
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
        let engine = Engine::with_threads(3);
        let expects =
            [1usize, 3].map(|n| (n, interpret(&pipe, &params, &inputs, n).expect("interpreter")));
        let schedules = [
            CompileOptions::optimized(params.clone()).with_mode(EvalMode::Scalar),
            CompileOptions::optimized(params.clone()),
        ];
        for (si, opts) in schedules.iter().enumerate() {
            let c = compile(&pipe, opts).expect("compile");
            prop_assert!(
                c.program.arena_bytes() <= unfolded_arena_bytes(&c.program),
                "folding grew the arena: {} > {}",
                c.program.arena_bytes(),
                unfolded_arena_bytes(&c.program)
            );
            prop_assert!(
                c.report.peak_full_bytes <= c.program.full_bytes(),
                "folding raised the peak estimate"
            );
            for (threads, expect) in &expects {
                let got = engine
                    .submit(RunRequest::new(&c.program, &inputs).threads(*threads))
                    .and_then(|h| h.join())
                    .expect("run");
                for (b_on, b_ref) in got.iter().zip(expect) {
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
    let on = compile(&pipe, &CompileOptions::optimized(params)).unwrap();
    let (a_on, a_off) = (on.program.arena_bytes(), unfolded_arena_bytes(&on.program));
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
