//! Property-based testing: randomly generated pipelines must compute the
//! same function under every schedule the compiler can produce —
//! fused/unfused, tiled/untiled, vector/scalar, 1 or several threads —
//! as the naive reference interpreter.
//!
//! The generator builds random DAGs out of the paper's computation
//! patterns (stencils, up/down-sampling, point-wise combinations, guarded
//! cases) with margin tracking so every access stays in bounds; the static
//! bounds checker double-checks the generator.

use proptest::prelude::*;

use polymage::core::interp::interpret;
use polymage::core::{compile, CompileOptions};
use polymage::ir::*;
use polymage::poly::Rect;
use polymage::vm::{Buffer, Engine, EvalMode, RunRequest};

const N: i64 = 64; // base 1-D size / 2-D side

/// One random pipeline-building step.
#[derive(Debug, Clone)]
enum Step {
    /// 3-tap stencil with the given integer weights, on the last stage.
    Stencil(i64, i64, i64),
    /// Point-wise arithmetic `a*v + b` on the last stage.
    Affine(i8, i8),
    /// 2× downsample of the last stage.
    Down,
    /// 2× upsample of the last stage (only if its level > 0).
    Up,
    /// Point-wise combination with an earlier stage (same level only).
    Combine(usize),
    /// Guard the last stage to an interior box (tests residual-free guards).
    Guarded,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-2i64..3, -2i64..3, -2i64..3).prop_map(|(a, b, c)| Step::Stencil(a, b, c)),
        (-3i8..4, -3i8..4).prop_map(|(a, b)| Step::Affine(a, b)),
        Just(Step::Down),
        Just(Step::Up),
        (0usize..8).prop_map(Step::Combine),
        Just(Step::Guarded),
    ]
}

/// A built stage: id, level (size N/2^lvl), margins (lo, hi).
#[derive(Clone, Copy)]
struct StageInfo {
    f: FuncId,
    lvl: u32,
    mlo: i64,
    mhi: i64,
}

/// Materializes a random 1-D pipeline from the steps; returns `None` when
/// the steps lead to a degenerate (empty-domain) pipeline.
fn build_pipeline(steps: &[Step]) -> Option<Pipeline> {
    let mut p = PipelineBuilder::new("random");
    let img = p.image("in", ScalarType::Float, vec![PAff::cst(N)]);
    let x = p.var("x");
    let mut stages: Vec<StageInfo> = Vec::new();

    let dom = |lvl: u32, mlo: i64, mhi: i64| -> Option<Interval> {
        let size = N >> lvl;
        if mlo + mhi + 4 >= size {
            return None; // keep domains comfortably non-empty
        }
        Some(Interval::cst(mlo, size - 1 - mhi))
    };
    let access = |s: Option<&StageInfo>, e: Expr| -> Expr {
        match s {
            Some(s) => Expr::at(s.f, [e]),
            None => Expr::at(img, [e]),
        }
    };

    for (i, step) in steps.iter().enumerate() {
        let last = stages.last().copied();
        let (lvl, mlo, mhi) = last.map(|s| (s.lvl, s.mlo, s.mhi)).unwrap_or((0, 0, 0));
        let name = format!("s{i}");
        let next = match step {
            Step::Stencil(w0, w1, w2) => {
                let (nmlo, nmhi) = (mlo + 1, mhi + 1);
                let d = dom(lvl, nmlo, nmhi)?;
                let f = p.func(&name, &[(x, d)], ScalarType::Float);
                let e = access(last.as_ref(), x - 1) * *w0 as f64
                    + access(last.as_ref(), x + 0) * *w1 as f64
                    + access(last.as_ref(), x + 1) * *w2 as f64;
                p.define(f, vec![Case::always(e * 0.25)]).ok()?;
                StageInfo {
                    f,
                    lvl,
                    mlo: nmlo,
                    mhi: nmhi,
                }
            }
            Step::Affine(a, b) => {
                let d = dom(lvl, mlo, mhi)?;
                let f = p.func(&name, &[(x, d)], ScalarType::Float);
                let e = access(last.as_ref(), Expr::from(x)) * *a as f64 + *b as f64;
                p.define(f, vec![Case::always(e)]).ok()?;
                StageInfo { f, lvl, mlo, mhi }
            }
            Step::Down => {
                if lvl >= 3 {
                    return None;
                }
                let (nmlo, nmhi) = ((mlo + 2) / 2, (mhi + 2) / 2);
                let d = dom(lvl + 1, nmlo, nmhi)?;
                let f = p.func(&name, &[(x, d)], ScalarType::Float);
                let e = (access(last.as_ref(), 2i64 * Expr::from(x) - 1)
                    + access(last.as_ref(), 2i64 * Expr::from(x))
                    + access(last.as_ref(), 2i64 * Expr::from(x) + 1))
                    * (1.0 / 3.0);
                p.define(f, vec![Case::always(e)]).ok()?;
                StageInfo {
                    f,
                    lvl: lvl + 1,
                    mlo: nmlo,
                    mhi: nmhi,
                }
            }
            Step::Up => {
                if lvl == 0 || last.is_none() {
                    return None;
                }
                let (nmlo, nmhi) = (2 * mlo, 2 * mhi + 1);
                let d = dom(lvl - 1, nmlo, nmhi)?;
                let f = p.func(&name, &[(x, d)], ScalarType::Float);
                let e = (access(last.as_ref(), Expr::from(x) / 2)
                    + access(last.as_ref(), (x + 1) / 2))
                    * 0.5;
                p.define(f, vec![Case::always(e)]).ok()?;
                StageInfo {
                    f,
                    lvl: lvl - 1,
                    mlo: nmlo,
                    mhi: nmhi,
                }
            }
            Step::Combine(j) => {
                let last = last?;
                let other = stages.get(*j % stages.len()).copied()?;
                if other.lvl != last.lvl {
                    return None;
                }
                let (nmlo, nmhi) = (last.mlo.max(other.mlo), last.mhi.max(other.mhi));
                let d = dom(last.lvl, nmlo, nmhi)?;
                let f = p.func(&name, &[(x, d)], ScalarType::Float);
                let e =
                    Expr::at(last.f, [Expr::from(x)]) + Expr::at(other.f, [Expr::from(x)]) * 0.5;
                p.define(f, vec![Case::always(e)]).ok()?;
                StageInfo {
                    f,
                    lvl: last.lvl,
                    mlo: nmlo,
                    mhi: nmhi,
                }
            }
            Step::Guarded => {
                let d = dom(lvl, mlo, mhi)?;
                let (lo, hi) = (d.lo.as_const()?, d.hi.as_const()?);
                if hi - lo < 8 {
                    return None;
                }
                let f = p.func(&name, &[(x, d)], ScalarType::Float);
                let guard = Expr::from(x).ge((lo + 2) as f64) & Expr::from(x).le((hi - 2) as f64);
                let e = access(last.as_ref(), Expr::from(x)) + 1.0;
                p.define(f, vec![Case::new(guard, e)]).ok()?;
                StageInfo { f, lvl, mlo, mhi }
            }
        };
        stages.push(next);
    }
    let out = stages.last()?;
    p.finish(&[out.f]).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every schedule computes the interpreter's function.
    #[test]
    fn schedules_preserve_semantics(
        steps in proptest::collection::vec(step_strategy(), 1..7),
        seed in 0u64..1000,
    ) {
        let Some(pipe) = build_pipeline(&steps) else { return Ok(()) };
        let input = Buffer::zeros(Rect::new(vec![(0, N - 1)])).fill_with(|p| {
            let h = (p[0] as u64).wrapping_mul(seed.wrapping_add(7))
                % 97;
            h as f32 / 7.0 - 5.0
        });
        // generator guarantees in-bounds accesses; verify that claim too
        prop_assert!(polymage::graph::check_bounds(&pipe, &[]).is_empty());
        let engine = Engine::with_threads(3);
        let expects = [1usize, 3]
            .map(|n| (n, interpret(&pipe, &[], std::slice::from_ref(&input), n).unwrap()));
        let configs = [
            CompileOptions::optimized(vec![]),
            CompileOptions::optimized(vec![]).with_mode(EvalMode::Scalar),
            CompileOptions::optimized(vec![]).with_tiles(vec![8]),
            CompileOptions::base(vec![]),
        ];
        for opts in configs {
            let compiled = compile(&pipe, &opts).unwrap();
            for (threads, expect) in &expects {
                let got = engine
                    .submit(
                        RunRequest::new(&compiled.program, std::slice::from_ref(&input))
                            .threads(*threads),
                    )
                    .and_then(|h| h.join())
                    .unwrap();
                for (g, w) in got.iter().zip(expect) {
                    prop_assert_eq!(&g.rect, &w.rect);
                    for (a, b) in g.data.iter().zip(&w.data) {
                        prop_assert!(
                            a.to_bits() == b.to_bits(),
                            "compiled {} vs interpreted {}",
                            a,
                            b
                        );
                    }
                }
            }
        }
    }

    /// Tile-size invariance: results are identical across tile sizes.
    #[test]
    fn tile_size_invariance(
        steps in proptest::collection::vec(step_strategy(), 2..7),
        t0 in 2u32..6, // tile 4..32
        t1 in 2u32..6,
    ) {
        let Some(pipe) = build_pipeline(&steps) else { return Ok(()) };
        let input = Buffer::zeros(Rect::new(vec![(0, N - 1)]))
            .fill_with(|p| ((p[0] * 31) % 17) as f32);
        let a = compile(&pipe, &CompileOptions::optimized(vec![]).with_tiles(vec![1 << t0]))
            .unwrap();
        let b = compile(&pipe, &CompileOptions::optimized(vec![]).with_tiles(vec![1 << t1]))
            .unwrap();
        let engine = Engine::with_threads(2);
        let [ra, rb] = [&a, &b].map(|c| {
            engine
                .submit(RunRequest::new(&c.program, std::slice::from_ref(&input)))
                .and_then(|h| h.join())
                .unwrap()
        });
        for (x, y) in ra.iter().zip(&rb) {
            // identical schedules up to tiling must agree bit-for-bit:
            // per-point evaluation order inside a stage does not change
            prop_assert_eq!(&x.data, &y.data);
        }
    }
}

// ---------- 2-D pipelines (stress tiling, strips, owned regions) ----------

/// One random 2-D pipeline-building step.
#[derive(Debug, Clone)]
enum Step2 {
    /// 3×3 stencil with given corner/edge/center weights.
    Stencil(i8, i8, i8),
    /// 2× downsample in both dimensions.
    Down,
    /// 2× upsample in both dimensions.
    Up,
    /// Point-wise combine with an earlier same-shape stage.
    Combine(usize),
    /// Parity-strided piecewise definition (`x%2`-split cases).
    Parity,
}

fn step2_strategy() -> impl Strategy<Value = Step2> {
    prop_oneof![
        (-2i8..3, -2i8..3, -2i8..3).prop_map(|(a, b, c)| Step2::Stencil(a, b, c)),
        Just(Step2::Down),
        Just(Step2::Up),
        (0usize..8).prop_map(Step2::Combine),
        Just(Step2::Parity),
    ]
}

#[derive(Clone, Copy)]
struct Stage2 {
    f: FuncId,
    lvl: u32,
    m: i64, // symmetric margin per dim
}

const N2: i64 = 96;

fn build_pipeline2(steps: &[Step2]) -> Option<Pipeline> {
    let mut p = PipelineBuilder::new("random2d");
    let img = p.image("in", ScalarType::Float, vec![PAff::cst(N2), PAff::cst(N2)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let mut stages: Vec<Stage2> = Vec::new();
    let dom = |lvl: u32, m: i64| -> Option<[(VarId, Interval); 2]> {
        let size = N2 >> lvl;
        if 2 * m + 6 >= size {
            return None;
        }
        Some([
            (x, Interval::cst(m, size - 1 - m)),
            (y, Interval::cst(m, size - 1 - m)),
        ])
    };
    let access = |s: Option<&Stage2>, xe: Expr, ye: Expr| -> Expr {
        match s {
            Some(s) => Expr::at(s.f, [xe, ye]),
            None => Expr::at(img, [xe, ye]),
        }
    };
    for (i, step) in steps.iter().enumerate() {
        let last = stages.last().copied();
        let (lvl, m) = last.map(|s| (s.lvl, s.m)).unwrap_or((0, 0));
        let name = format!("t{i}");
        let next = match step {
            Step2::Stencil(a, b, c) => {
                let nm = m + 1;
                let d = dom(lvl, nm)?;
                let f = p.func(&name, &d, ScalarType::Float);
                let mut e: Option<Expr> = None;
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        let w = if dx != 0 && dy != 0 {
                            *a
                        } else if dx == 0 && dy == 0 {
                            *c
                        } else {
                            *b
                        } as f64;
                        if w == 0.0 {
                            continue;
                        }
                        let t = access(last.as_ref(), x + dx, y + dy) * (w / 8.0);
                        e = Some(match e {
                            None => t,
                            Some(s) => s + t,
                        });
                    }
                }
                let e = e.unwrap_or(Expr::Const(1.0));
                p.define(f, vec![Case::always(e)]).ok()?;
                Stage2 { f, lvl, m: nm }
            }
            Step2::Down => {
                if lvl >= 2 {
                    return None;
                }
                let nm = m / 2 + 1;
                let d = dom(lvl + 1, nm)?;
                let f = p.func(&name, &d, ScalarType::Float);
                let e = (access(
                    last.as_ref(),
                    2i64 * Expr::from(x) - 1,
                    2i64 * Expr::from(y),
                ) + access(last.as_ref(), 2i64 * Expr::from(x), 2i64 * Expr::from(y))
                    + access(
                        last.as_ref(),
                        2i64 * Expr::from(x) + 1,
                        2i64 * Expr::from(y) + 1,
                    ))
                    * (1.0 / 3.0);
                p.define(f, vec![Case::always(e)]).ok()?;
                Stage2 {
                    f,
                    lvl: lvl + 1,
                    m: nm,
                }
            }
            Step2::Up => {
                if lvl == 0 || last.is_none() {
                    return None;
                }
                let nm = 2 * m + 2;
                let d = dom(lvl - 1, nm)?;
                let f = p.func(&name, &d, ScalarType::Float);
                let e = (access(last.as_ref(), Expr::from(x) / 2, Expr::from(y) / 2)
                    + access(last.as_ref(), (x + 1) / 2, (y + 1) / 2))
                    * 0.5;
                p.define(f, vec![Case::always(e)]).ok()?;
                Stage2 {
                    f,
                    lvl: lvl - 1,
                    m: nm,
                }
            }
            Step2::Combine(j) => {
                let last = last?;
                let other = stages.get(*j % stages.len()).copied()?;
                if other.lvl != last.lvl {
                    return None;
                }
                let nm = last.m.max(other.m);
                let d = dom(last.lvl, nm)?;
                let f = p.func(&name, &d, ScalarType::Float);
                let e = Expr::at(last.f, [Expr::from(x), Expr::from(y)])
                    - Expr::at(other.f, [Expr::from(x), Expr::from(y)]) * 0.25;
                p.define(f, vec![Case::always(e)]).ok()?;
                Stage2 {
                    f,
                    lvl: last.lvl,
                    m: nm,
                }
            }
            Step2::Parity => {
                let d = dom(lvl, m)?;
                let f = p.func(&name, &d, ScalarType::Float);
                let v = access(last.as_ref(), Expr::from(x), Expr::from(y));
                p.define(
                    f,
                    vec![
                        Case::new(Expr::from(x).rem(2.0).eq_(0.0), v.clone() + 1.0),
                        Case::new(Expr::from(x).rem(2.0).eq_(1.0), v * -1.0),
                    ],
                )
                .ok()?;
                Stage2 { f, lvl, m }
            }
        };
        stages.push(next);
    }
    let out = stages.last()?;
    p.finish(&[out.f]).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 2-D random pipelines: compiled programs are structurally valid and
    /// agree with the interpreter under several schedules and thread counts.
    #[test]
    fn two_d_schedules_preserve_semantics(
        steps in proptest::collection::vec(step2_strategy(), 1..6),
        seed in 0u64..500,
    ) {
        let Some(pipe) = build_pipeline2(&steps) else { return Ok(()) };
        prop_assert!(polymage::graph::check_bounds(&pipe, &[]).is_empty());
        let input = Buffer::zeros(Rect::new(vec![(0, N2 - 1), (0, N2 - 1)]))
            .fill_with(|p| {
                let h = (p[0] as u64 * 31 + p[1] as u64 * 17 + seed) % 23;
                h as f32 / 3.0 - 3.0
            });
        let engine = Engine::with_threads(4);
        let expects = [1usize, 4]
            .map(|n| (n, interpret(&pipe, &[], std::slice::from_ref(&input), n).unwrap()));
        for opts in [
            CompileOptions::optimized(vec![]).with_tiles(vec![16, 16]),
            CompileOptions::optimized(vec![]).with_tiles(vec![8, 64]).with_threshold(2.0),
            CompileOptions::base(vec![]),
        ] {
            let compiled = compile(&pipe, &opts).unwrap();
            polymage::core::assert_valid(&compiled.program);
            for (threads, expect) in &expects {
                let got = engine
                    .submit(
                        RunRequest::new(&compiled.program, std::slice::from_ref(&input))
                            .threads(*threads),
                    )
                    .and_then(|h| h.join())
                    .unwrap();
                for (g, w) in got.iter().zip(expect) {
                    prop_assert_eq!(&g.rect, &w.rect);
                    for (a, b) in g.data.iter().zip(&w.data) {
                        prop_assert!(
                            a.to_bits() == b.to_bits(),
                            "compiled {} vs interpreted {}",
                            a,
                            b
                        );
                    }
                }
            }
        }
    }
}
