//! Round-trip validation of the runnable C backend: the emitted C program
//! is compiled with the system C compiler and its output compared against
//! the VM — a third, fully independent implementation of the language
//! semantics (after the VM and the interpreter).
//!
//! Skips silently when no C compiler is installed.

use polymage_core::{compile, emit_c_inputs, emit_c_reference, CompileOptions};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{Buffer, Engine, RunRequest};
use std::process::Command;

fn have_cc() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

/// Compiles and runs the C reference, returning the printed values.
fn run_c(pipe: &Pipeline, params: &[i64], inputs: &[Buffer]) -> Vec<f32> {
    let dir = std::env::temp_dir().join(format!(
        "polymage-cref-{}-{}",
        pipe.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let main_c = emit_c_reference(pipe, params);
    let data: Vec<&[f32]> = inputs.iter().map(|b| b.data.as_slice()).collect();
    let inputs_c = emit_c_inputs(pipe, params, &data);
    std::fs::write(dir.join("main.c"), &main_c).unwrap();
    std::fs::write(dir.join("inputs.c"), &inputs_c).unwrap();
    let exe = dir.join("prog");
    let out = Command::new("cc")
        .args(["-O1", "-o"])
        .arg(&exe)
        .arg(dir.join("main.c"))
        .arg(dir.join("inputs.c"))
        .arg("-lm")
        .output()
        .expect("cc invocation");
    assert!(
        out.status.success(),
        "cc failed:\n{}\n--- main.c ---\n{}",
        String::from_utf8_lossy(&out.stderr),
        main_c
    );
    let run = Command::new(&exe).output().expect("run emitted program");
    assert!(run.status.success());
    let _ = std::fs::remove_dir_all(&dir);
    String::from_utf8(run.stdout)
        .unwrap()
        .lines()
        .map(|l| l.trim().parse::<f32>().expect("float line"))
        .collect()
}

fn check_roundtrip(
    engine: &Engine,
    pipe: &Pipeline,
    params: Vec<i64>,
    inputs: &[Buffer],
    tol: f32,
) {
    if !have_cc() {
        eprintln!("no C compiler; skipping");
        return;
    }
    let cvals = run_c(pipe, &params, inputs);
    let compiled = compile(pipe, &CompileOptions::optimized(params)).unwrap();
    let got = engine
        .submit(RunRequest::new(&compiled.program, inputs))
        .and_then(|h| h.join())
        .unwrap();
    let vmvals: Vec<f32> = got.iter().flat_map(|b| b.data.iter().copied()).collect();
    assert_eq!(cvals.len(), vmvals.len(), "output size mismatch");
    for (i, (c, v)) in cvals.iter().zip(&vmvals).enumerate() {
        assert!(
            (c - v).abs() <= tol + tol * v.abs(),
            "elem {i}: C {c} vs VM {v}"
        );
    }
}

#[test]
fn c_backend_matches_vm_on_stencil_pipeline() {
    let mut p = PipelineBuilder::new("cref_stencil");
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
    check_roundtrip(
        &Engine::with_threads(2),
        &pipe,
        vec![41, 37],
        &[input],
        1e-5,
    );
}

#[test]
fn c_backend_matches_vm_on_histogram_lut() {
    let mut p = PipelineBuilder::new("cref_hist");
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
    check_roundtrip(&Engine::with_threads(2), &pipe, vec![], &[input], 0.0);
}

#[test]
fn c_backend_matches_vm_on_sampling_and_parity() {
    let mut p = PipelineBuilder::new("cref_sample");
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
    check_roundtrip(&Engine::with_threads(2), &pipe, vec![], &[input], 0.0);
}

#[test]
fn c_backend_matches_vm_on_time_iteration() {
    let mut p = PipelineBuilder::new("cref_scan");
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
    check_roundtrip(&Engine::with_threads(2), &pipe, vec![], &[input], 1e-6);
}

/// The paper's benchmark pipelines themselves round-trip through the C
/// backend at Tiny scale (apps with big inputs are covered by their own
/// reference tests; here we take the three with the most varied access
/// patterns).
#[test]
fn c_backend_matches_vm_on_benchmarks() {
    if !have_cc() {
        eprintln!("no C compiler; skipping");
        return;
    }
    use polymage_apps::{Benchmark, Scale};
    let apps: Vec<Box<dyn Benchmark>> = vec![
        Box::new(polymage_apps::harris::HarrisCorner::new(Scale::Tiny)),
        Box::new(polymage_apps::camera::CameraPipe::new(Scale::Tiny)),
        Box::new(polymage_apps::bilateral::BilateralGrid::new(Scale::Tiny)),
    ];
    let engine = Engine::with_threads(2);
    for app in apps {
        let inputs = app.make_inputs(5);
        check_roundtrip(
            &engine,
            app.pipeline(),
            app.params(),
            &inputs,
            app.tolerance(),
        );
    }
}
