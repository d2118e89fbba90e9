//! The C emitter's contract: the emitted program, built with the system C
//! compiler (`cc -O2 -std=c99 -ffp-contract=off`), computes exactly the bits
//! of a single-threaded engine run of the same scheduled program.
//!
//! Inputs reach the C program as a raw `f32` file and its outputs come back
//! as raw `f32` on stdout, so values are compared by `to_bits()`, never
//! through printed decimals. Skips with a message when no C compiler is
//! installed (CI checks `cc --version` first, so a runner without one fails).

use polymage_apps::Scale;
use polymage_core::interp::interpret;
use polymage_core::{compile, emit_c, CompileOptions, Schedule};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{
    available_simd_levels, Buffer, CaseExec, Engine, GroupKind, Kernel, Op, Program, RunRequest,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn have_cc() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

/// A fresh scratch directory per emitted program.
fn scratch_dir(name: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("polymage-emit-{name}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Emits and compiles a program; returns the executable's directory.
fn build_c(prog: &Program) -> PathBuf {
    let dir = scratch_dir(&prog.name);
    let src = emit_c(prog);
    std::fs::write(dir.join("prog.c"), &src).unwrap();
    let out = Command::new("cc")
        .args(["-O2", "-std=c99", "-ffp-contract=off", "-o"])
        .arg(dir.join("prog"))
        .arg(dir.join("prog.c"))
        .arg("-lm")
        .output()
        .expect("cc invocation");
    assert!(
        out.status.success(),
        "cc failed on `{}`:\n{}",
        prog.name,
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

/// Runs a built program `reps` times on `inputs`; returns each live-out's
/// bits and the median milliseconds it reported.
fn run_c(dir: &Path, prog: &Program, inputs: &[Buffer], reps: usize) -> (Vec<Vec<u32>>, f64) {
    let bytes: Vec<u8> = inputs
        .iter()
        .flat_map(|b| b.data.iter().flat_map(|v| v.to_le_bytes()))
        .collect();
    std::fs::write(dir.join("inputs.f32"), bytes).unwrap();
    let run = Command::new(dir.join("prog"))
        .arg(dir.join("inputs.f32"))
        .arg(reps.to_string())
        .output()
        .expect("run emitted program");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "`{}` failed: {stderr}", prog.name);
    let ms: f64 = stderr
        .trim()
        .strip_suffix(" ms")
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no time on stderr: {stderr}"));
    let mut words = run
        .stdout
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    let outs = prog
        .outputs
        .iter()
        .map(|(_, b)| words.by_ref().take(prog.buffers[b.0].len()).collect())
        .collect();
    assert_eq!(
        words.next(),
        None,
        "`{}` wrote more than its live-outs",
        prog.name
    );
    (outs, ms)
}

fn engine_bits(engine: &Engine, prog: &Arc<Program>, inputs: &[Buffer]) -> Vec<Vec<u32>> {
    let got = engine
        .submit(RunRequest::new(prog, inputs).threads(1))
        .and_then(|h| h.join())
        .unwrap();
    got.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `c` is the output of `side` (the C program or the interpreter).
fn assert_bits_eq(side: &str, c: &[Vec<u32>], vm: &[Vec<u32>], what: &str) {
    assert_eq!(c.len(), vm.len(), "{what}: live-out count");
    for (o, (c, v)) in c.iter().zip(vm).enumerate() {
        assert_eq!(c.len(), v.len(), "{what}: live-out {o} length");
        if let Some(i) = (0..c.len()).find(|&i| c[i] != v[i]) {
            panic!(
                "{what}: live-out {o} element {i}: {side} {:#010x} ({}) vs engine {:#010x} ({})",
                c[i],
                f32::from_bits(c[i]),
                v[i],
                f32::from_bits(v[i])
            );
        }
    }
}

/// Compiles `pipe` under each schedule and compares the C program with the
/// engine bit for bit.
fn check(
    engine: &Engine,
    pipe: &Pipeline,
    params: Vec<i64>,
    inputs: &[Buffer],
    schedules: &[Schedule],
) {
    if !have_cc() {
        eprintln!("no C compiler; skipping");
        return;
    }
    for &schedule in schedules {
        let opts = CompileOptions {
            schedule,
            ..CompileOptions::optimized(params.clone())
        };
        let prog = compile(pipe, &opts).unwrap().program;
        let dir = build_c(&prog);
        let (c, _) = run_c(&dir, &prog, inputs, 1);
        let what = format!("{} under {}", pipe.name(), schedule.label());
        assert_bits_eq("C", &c, &engine_bits(engine, &prog, inputs), &what);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn c_backend_matches_vm_on_stencil_pipeline() {
    let mut p = PipelineBuilder::new("emit_stencil");
    let (r, c) = (p.param("R"), p.param("C"));
    let img = p.image("I", ScalarType::Float, vec![PAff::param(r), PAff::param(c)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d1 = (
        Interval::new(PAff::cst(1), PAff::param(r) - 2),
        Interval::new(PAff::cst(1), PAff::param(c) - 2),
    );
    let blur = p.func(
        "blur",
        &[(x, d1.0.clone()), (y, d1.1.clone())],
        ScalarType::Float,
    );
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
    let d2 = (
        Interval::new(PAff::cst(2), PAff::param(r) - 3),
        Interval::new(PAff::cst(2), PAff::param(c) - 3),
    );
    let sharp = p.func("sharp", &[(x, d2.0), (y, d2.1)], ScalarType::Float);
    p.define(
        sharp,
        vec![Case::always(
            Expr::at(img, [Expr::from(x), Expr::from(y)]) * 2.0
                - Expr::at(blur, [Expr::from(x), Expr::from(y)]),
        )],
    )
    .unwrap();
    let pipe = p.finish(&[sharp]).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 40), (0, 36)]))
        .fill_with(|pt| ((pt[0] * 13 + pt[1] * 7) % 32) as f32 / 8.0);
    check(
        &Engine::with_threads(1),
        &pipe,
        vec![41, 37],
        &[input],
        &Schedule::ALL,
    );
}

#[test]
fn c_backend_matches_vm_on_histogram_lut() {
    let mut p = PipelineBuilder::new("emit_hist");
    let img = p.image("I", ScalarType::UChar, vec![PAff::cst(40), PAff::cst(40)]);
    let (x, y, b) = (p.var("x"), p.var("y"), p.var("b"));
    let d = Interval::cst(0, 39);
    let acc = Accumulate {
        red_vars: vec![x, y],
        red_dom: vec![d.clone(), d.clone()],
        target: vec![Expr::at(img, [Expr::from(x), Expr::from(y)])],
        value: Expr::Const(1.0),
        op: Reduction::Sum,
    };
    let hist = p
        .accumulator("hist", &[(b, Interval::cst(0, 63))], ScalarType::Int, acc)
        .unwrap();
    let out = p.func("eq", &[(x, d.clone()), (y, d)], ScalarType::Float);
    p.define(
        out,
        vec![Case::always(Expr::at(
            hist,
            [Expr::at(img, [Expr::from(x), Expr::from(y)])],
        ))],
    )
    .unwrap();
    let pipe = p.finish(&[out]).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 39), (0, 39)]))
        .fill_with(|pt| ((pt[0] * 31 + pt[1] * 17) % 64) as f32);
    check(
        &Engine::with_threads(1),
        &pipe,
        vec![],
        &[input],
        &Schedule::ALL,
    );
}

#[test]
fn c_backend_matches_vm_on_sampling_and_parity() {
    let mut p = PipelineBuilder::new("emit_sample");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(64)]);
    let x = p.var("x");
    // down(x) = I(2x) + I(2x+1) over [0,31]
    let down = p.func("down", &[(x, Interval::cst(0, 31))], ScalarType::Float);
    p.define(
        down,
        vec![Case::always(
            Expr::at(img, [2i64 * Expr::from(x)]) + Expr::at(img, [2i64 * Expr::from(x) + 1]),
        )],
    )
    .unwrap();
    // up with parity cases: even → down(x/2), odd → −down(x/2)
    let up = p.func("up", &[(x, Interval::cst(0, 62))], ScalarType::Float);
    p.define(
        up,
        vec![
            Case::new(
                Expr::from(x).rem(2.0).eq_(0.0),
                Expr::at(down, [Expr::from(x) / 2]),
            ),
            Case::new(
                Expr::from(x).rem(2.0).eq_(1.0),
                -Expr::at(down, [Expr::from(x) / 2]),
            ),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[up]).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 63)])).fill_with(|pt| (pt[0] % 9) as f32 - 4.0);
    check(
        &Engine::with_threads(1),
        &pipe,
        vec![],
        &[input],
        &Schedule::ALL,
    );
}

#[test]
fn c_backend_matches_vm_on_time_iteration() {
    let mut p = PipelineBuilder::new("emit_scan");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(32)]);
    let (t, x) = (p.var("t"), p.var("x"));
    let f = p.func(
        "f",
        &[(t, Interval::cst(0, 3)), (x, Interval::cst(0, 31))],
        ScalarType::Float,
    );
    p.define(
        f,
        vec![
            Case::new(Expr::from(t).le(0), Expr::at(img, [Expr::from(x)])),
            Case::new(
                Expr::from(t).ge(1) & Expr::from(x).ge(1) & Expr::from(x).le(30),
                (Expr::at(f, [t - 1, x - 1]) + Expr::at(f, [t - 1, x + 1])) * 0.5,
            ),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let input = Buffer::zeros(Rect::new(vec![(0, 31)])).fill_with(|pt| (pt[0] * pt[0] % 11) as f32);
    check(
        &Engine::with_threads(1),
        &pipe,
        vec![],
        &[input],
        &Schedule::ALL,
    );

    // A scan whose stores take every store arm: parity cases (strided
    // stores), a residual mask (x + t ≤ 20 is no box), and a rounding,
    // saturating `UChar` store.
    let mut p = PipelineBuilder::new("emit_masked_scan");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(32)]);
    let (t, x) = (p.var("t"), p.var("x"));
    let f = p.func(
        "f",
        &[(t, Interval::cst(0, 5)), (x, Interval::cst(0, 31))],
        ScalarType::UChar,
    );
    let later = Expr::from(t).ge(1);
    p.define(
        f,
        vec![
            Case::new(Expr::from(t).le(0), Expr::at(img, [Expr::from(x)]) * 40.0),
            Case::new(
                later.clone()
                    & Expr::from(x).rem(2.0).eq_(1.0)
                    & Expr::from(x).ge(1)
                    & Expr::from(x).le(30),
                (Expr::at(f, [t - 1, x - 1]) + Expr::at(f, [t - 1, x + 1])) * 0.75 + 3.3,
            ),
            Case::new(
                later & Expr::from(x).rem(2.0).eq_(0.0) & (Expr::from(x) + t).le(20),
                Expr::at(f, [t - 1, Expr::from(x)]) * 1.6 - 7.5,
            ),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let inputs =
        [Buffer::zeros(Rect::new(vec![(0, 31)])).fill_with(|pt| (pt[0] * 5 % 13) as f32 - 2.5)];
    let interp: Vec<Vec<u32>> = interpret(&pipe, &[], &inputs, 1)
        .unwrap()
        .iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect();
    let vals: Vec<f32> = interp[0].iter().map(|&b| f32::from_bits(b)).collect();
    assert!(
        vals.contains(&0.0) && vals.contains(&255.0) && vals.iter().any(|&v| v > 0.0 && v < 255.0),
        "masked scan never saturates both ways: {vals:?}"
    );
    let engine = Engine::with_threads(1);
    for schedule in Schedule::ALL {
        let opts = CompileOptions {
            schedule,
            ..CompileOptions::optimized(vec![])
        };
        let prog = compile(&pipe, &opts).unwrap().program;
        let what = format!("masked scan under {}", schedule.label());
        let [GroupKind::Sequential(seq)] =
            &prog.groups.iter().map(|g| &g.kind).collect::<Vec<_>>()[..]
        else {
            panic!("{what}: not one sequential group");
        };
        assert!(seq.chunked, "{what}: scan runs point-wise");
        let steps: Vec<_> = seq.cases.iter().map(|c| c.steps.last().copied()).collect();
        assert!(
            steps.contains(&Some((2, 1))) && steps.contains(&Some((2, 0))),
            "{what}: parity cases lost their steps: {steps:?}"
        );
        let kinds = op_kinds(&prog);
        assert!(
            kinds.contains("case mask") && kinds.contains("saturating store"),
            "{what}: {kinds:?}"
        );
        assert_bits_eq(
            "interpreter",
            &interp,
            &engine_bits(&engine, &prog, &inputs),
            &what,
        );
    }
    check(&engine, &pipe, vec![], &inputs, &Schedule::ALL);
}

/// What the program's kernels and stores exercise: op kinds (binary,
/// unary and comparison ops by operator), load index forms, store masks,
/// saturating stores and reduction operators.
fn op_kinds(prog: &Program) -> std::collections::BTreeSet<String> {
    let mut kinds = std::collections::BTreeSet::new();
    let mut cases: Vec<(&[CaseExec], Option<_>)> = Vec::new();
    let mut kernels: Vec<&Kernel> = Vec::new();
    for g in &prog.groups {
        match &g.kind {
            GroupKind::Tiled(tg) => cases.extend(tg.stages.iter().map(|s| (&s.cases[..], s.sat))),
            GroupKind::Sequential(q) => cases.push((&q.cases[..], q.sat)),
            GroupKind::Reduction(r) => {
                kernels.push(&r.kernel);
                kinds.insert(format!("{:?} reduction", r.op));
            }
        }
    }
    for (cs, sat) in cases {
        if sat.is_some() {
            kinds.insert("saturating store".into());
        }
        for c in cs {
            if c.mask.is_some() {
                kinds.insert("case mask".into());
            }
            kernels.push(&c.kernel);
        }
    }
    for op in kernels.iter().flat_map(|k| &k.ops) {
        match op {
            Op::BinF { op, .. } => kinds.insert(format!("{op:?}")),
            Op::UnF { op, .. } => kinds.insert(format!("{op:?}")),
            Op::CmpMask { op, .. } => kinds.insert(format!("{op:?}")),
            Op::Load { plan, .. } => {
                for p in plan {
                    let form = format!("{p:?}");
                    kinds.insert(format!("Load {}", form.split([' ', '(']).next().unwrap()));
                }
                true
            }
            op => kinds.insert(format!("{op:?}").split(' ').next().unwrap().to_string()),
        };
    }
    kinds
}

/// Values where a C spelling and the VM's most easily part ways: NaN, ±∞,
/// ±0, halfway ties, huge magnitudes.
const HOSTILE: [f32; 16] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    0.5,
    -0.5,
    1.5,
    -2.5,
    2.5,
    253.5,
    -1e30,
    1e30,
    3.0,
    -7.25,
    1e9,
];

/// Every op kind, both index forms, a residual mask, a saturating cast and
/// store, and a Min and a Max reduction with untouched cells, fed the
/// values above and data-dependent indices far outside their buffers —
/// compared at every SIMD level the host has.
#[test]
fn c_backend_matches_vm_on_hostile_values() {
    let mut p = PipelineBuilder::new("hostile");
    let (w, h) = (24i64, 20i64);
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(h), PAff::cst(w)]);
    let (x, y, b) = (p.var("x"), p.var("y"), p.var("b"));
    let (dx, dy) = (Interval::cst(0, h - 1), Interval::cst(0, w - 1));
    let at = |dx: i64, dy: i64| Expr::at(img, [x + dx, y + dy]);
    let inner = (Interval::cst(1, h - 2), Interval::cst(1, w - 2));

    // Arithmetic: every binary and unary op on neighbouring hostile values.
    let arith = p.func(
        "arith",
        &[(x, inner.0.clone()), (y, inner.1.clone())],
        ScalarType::Float,
    );
    let (u, v) = (at(0, 0), at(0, 1));
    let e = (u.clone() + v.clone()) * (u.clone() - v.clone()) / v.clone()
        + u.clone().min(v.clone())
        + v.clone().max(u.clone())
        + u.clone().rem(v.clone())
        + u.clone().pow(v.clone())
        + (-u.clone()).sqrt()
        + v.clone().abs()
        + u.clone().exp().log()
        + v.clone().sin() * u.clone().cos()
        + v.clone().floor() * u.clone().ceil();
    p.define(arith, vec![Case::always(e)]).unwrap();

    // Selects on every comparison, with conjunction, disjunction, negation.
    let sel = p.func(
        "sel",
        &[(x, inner.0.clone()), (y, inner.1.clone())],
        ScalarType::Float,
    );
    let (a, c) = (at(-1, 0), at(1, 0));
    let conds = [
        a.clone().lt(c.clone()) & !a.clone().ge(0.0),
        a.clone().le(c.clone()) | a.clone().gt(1.0),
        a.clone().eq_(c.clone()),
        a.clone().ne_(c.clone()),
    ];
    let e = conds
        .into_iter()
        .enumerate()
        .map(|(i, k)| Expr::select(k, a.clone() * (i + 1) as f64, Expr::at(arith, [x, y])))
        .reduce(|l, r| l + r)
        .unwrap();
    p.define(sel, vec![Case::always(e)]).unwrap();

    // Data-dependent gathers far outside the image (index ·1000, NaN, ±∞),
    // a residual mask (x + y > 14 is no box), casts, a saturating store.
    let out = p.func(
        "out",
        &[(x, inner.0.clone()), (y, inner.1.clone())],
        ScalarType::UChar,
    );
    let far = Expr::at(img, [Expr::at(sel, [x, y]) * 1000.0, Expr::at(img, [x, y])]);
    p.define(
        out,
        vec![
            Case::always(far.clone().cast(ScalarType::UChar) + at(0, 0).cast(ScalarType::Int)),
            Case::new((Expr::from(x) + y).gt(14), far.clamp(-3.0, 300.0) * 2.0),
        ],
    )
    .unwrap();

    // Min and Max reductions: targets from hostile data (clamped into the
    // 64-cell accumulator), most cells never touched.
    let red = |op| Accumulate {
        red_vars: vec![x, y],
        red_dom: vec![dx.clone(), dy.clone()],
        target: vec![Expr::at(img, [x, y]) * 3.0 + 40.0],
        value: Expr::at(img, [x, y]) * Expr::from(y),
        op,
    };
    let lo = p
        .accumulator(
            "lo",
            &[(b, Interval::cst(0, 63))],
            ScalarType::Float,
            red(Reduction::Min),
        )
        .unwrap();
    let hi = p
        .accumulator(
            "hi",
            &[(b, Interval::cst(0, 63))],
            ScalarType::Float,
            red(Reduction::Max),
        )
        .unwrap();
    let pipe = p.finish(&[out, lo, hi]).unwrap();
    let prog = compile(&pipe, &CompileOptions::optimized(vec![]))
        .unwrap()
        .program;
    let kinds = op_kinds(&prog);
    for want in [
        "ConstF",
        "CoordF",
        "Add",
        "Sub",
        "Mul",
        "Div",
        "Min",
        "Max",
        "Mod",
        "Pow",
        "Neg",
        "Abs",
        "Sqrt",
        "Exp",
        "Log",
        "Sin",
        "Cos",
        "Floor",
        "Ceil",
        "Lt",
        "Le",
        "Gt",
        "Ge",
        "Eq",
        "Ne",
        "MaskAnd",
        "MaskOr",
        "MaskNot",
        "SelectF",
        "CastRound",
        "CastSat",
        "Load Affine",
        "Load Reg",
        "case mask",
        "saturating store",
        "Min reduction",
        "Max reduction",
    ] {
        assert!(
            kinds.contains(want),
            "hostile pipeline lacks {want}: {kinds:?}"
        );
    }
    let inputs = [Buffer::zeros(Rect::new(vec![(0, h - 1), (0, w - 1)]))
        .fill_with(|pt| HOSTILE[((pt[0] * 7 + pt[1] * 3) % 16) as usize])];

    // The interpreter is the third side, checked with or without a C
    // compiler: bit for bit with the engine at every schedule and level.
    let engine = Engine::with_threads(1);
    let interp: Vec<Vec<u32>> = interpret(&pipe, &[], &inputs, 1)
        .unwrap()
        .iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect();
    for schedule in Schedule::ALL {
        let opts = CompileOptions {
            schedule,
            ..CompileOptions::optimized(vec![])
        };
        let prog = compile(&pipe, &opts).unwrap().program;
        for level in available_simd_levels() {
            let at_level = Arc::new(Program {
                simd: level,
                ..(*prog).clone()
            });
            let what = format!("hostile under {} at {level}", schedule.label());
            let vm = engine_bits(&engine, &at_level, &inputs);
            assert_bits_eq("interpreter", &interp, &vm, &what);
        }
    }

    if !have_cc() {
        eprintln!("no C compiler; skipping");
        return;
    }
    for schedule in [Schedule::Opt, Schedule::Base] {
        let opts = CompileOptions {
            schedule,
            ..CompileOptions::optimized(vec![])
        };
        let prog = compile(&pipe, &opts).unwrap().program;
        let dir = build_c(&prog);
        let (c, _) = run_c(&dir, &prog, &inputs, 1);
        let vals: Vec<f32> = c.iter().flatten().map(|&b| f32::from_bits(b)).collect();
        assert!(vals.iter().any(|v| v.is_nan()) && vals.iter().any(|v| v.is_infinite()));
        assert!(vals.contains(&0.0) && vals.iter().any(|v| v.is_finite() && *v != 0.0));
        for level in available_simd_levels() {
            let at_level = Arc::new(Program {
                simd: level,
                ..(*prog).clone()
            });
            let what = format!("hostile under {} at {level}", schedule.label());
            assert_bits_eq("C", &c, &engine_bits(&engine, &at_level, &inputs), &what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The paper's seven benchmarks, every schedule, at Tiny scale (two
/// threads, each with its own single-worker engine, share the apps).
#[test]
fn c_backend_matches_vm_on_benchmarks() {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let engine = Engine::with_threads(1);
                let apps = polymage_apps::all_benchmarks(Scale::Tiny);
                while let Some(app) = apps.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let inputs = app.make_inputs(5);
                    check(
                        &engine,
                        app.pipeline(),
                        app.params(),
                        &inputs,
                        &Schedule::ALL,
                    );
                }
            });
        }
    });
}

/// Native milliseconds of the emitted `Opt` program next to the engine's
/// single-thread `Opt` time, per app at the benchmark's frame sizes:
/// `cargo test --release -p polymage-core --test c_backend -- --ignored --nocapture`.
#[test]
#[ignore = "timing table at frame sizes"]
fn native_vs_vm_timing() {
    use polymage_apps::*;
    let apps: Vec<Box<dyn Benchmark>> = vec![
        Box::new(unsharp::Unsharp::with_size(512, 512)),
        Box::new(bilateral::BilateralGrid::with_size(640, 384)),
        Box::new(harris::HarrisCorner::with_size(1600, 1600)),
        Box::new(camera::CameraPipe::with_size(632, 480)),
        Box::new(pyramid::PyramidBlend::with_size(512, 512)),
        Box::new(interpolate::MultiscaleInterp::with_size(640, 384)),
        Box::new(laplacian::LocalLaplacian::with_size(640, 384)),
    ];
    let engine = Engine::with_threads(1);
    // The ratio is a speed ratio: VM / native = native ms / VM ms.
    println!("| app | size | native ms | VM ms (1 thread) | VM / native |");
    println!("|---|---|---|---|---|");
    for app in apps {
        let inputs = app.make_inputs(42);
        let prog = compile(app.pipeline(), &CompileOptions::optimized(app.params()))
            .unwrap()
            .program;
        let dir = build_c(&prog);
        let (c, native) = run_c(&dir, &prog, &inputs, 7);
        assert_bits_eq("C", &c, &engine_bits(&engine, &prog, &inputs), app.name());
        let mut vm: Vec<f64> = (0..7)
            .map(|_| {
                let t = std::time::Instant::now();
                let run = engine.submit(RunRequest::new(&prog, &inputs).threads(1));
                run.and_then(|h| h.join()).unwrap();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        vm.sort_by(f64::total_cmp);
        let p = app.params();
        println!(
            "| {} | {}×{} | {native:.2} | {:.2} | {:.2} |",
            app.name(),
            p[0],
            p[1],
            vm[3],
            native / vm[3]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
