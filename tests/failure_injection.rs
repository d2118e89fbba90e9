//! Failure injection: invalid specifications must be rejected with the
//! right errors, at the right phase — builder, graph construction, static
//! bounds checking, compilation, or execution — never by computing garbage.

use polymage::apps::{all_benchmarks, Scale};
use polymage::core::{compile, instantiate, plan, CompileError, CompileOptions, Session};
use polymage::graph::{GraphError, PipelineGraph};
use polymage::ir::*;
use polymage::poly::Rect;
use polymage::vm::{Buffer, Engine, RunRequest, VmError};

#[test]
fn cyclic_specification_rejected() {
    let mut p = PipelineBuilder::new("cycle");
    let x = p.var("x");
    let d = Interval::cst(0, 15);
    let a = p.func("a", &[(x, d.clone())], ScalarType::Float);
    let b = p.func("b", &[(x, d.clone())], ScalarType::Float);
    let c = p.func("c", &[(x, d)], ScalarType::Float);
    p.define(a, vec![Case::always(Expr::at(c, [x + 0]))])
        .unwrap();
    p.define(b, vec![Case::always(Expr::at(a, [x + 0]))])
        .unwrap();
    p.define(c, vec![Case::always(Expr::at(b, [x + 0]))])
        .unwrap();
    let pipe = p.finish(&[c]).unwrap();
    match PipelineGraph::build(&pipe) {
        Err(GraphError::Cycle(names)) => assert_eq!(names.len(), 3),
        other => panic!("expected a 3-cycle, got {other:?}"),
    }
    // compile surfaces the same error
    assert!(matches!(
        compile(&pipe, &CompileOptions::optimized(vec![])),
        Err(CompileError::Graph(GraphError::Cycle(_)))
    ));
}

#[test]
fn out_of_bounds_stencil_reported_with_details() {
    let mut p = PipelineBuilder::new("oob");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(32), PAff::cst(32)]);
    let (x, y) = (p.var("x"), p.var("y"));
    let d = Interval::cst(0, 31);
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
    match compile(&pipe, &CompileOptions::optimized(vec![])) {
        Err(CompileError::Bounds(vs)) => {
            assert_eq!(vs.len(), 1);
            assert_eq!(vs[0].consumer, "f");
            assert_eq!(vs[0].producer, "I");
            // the error message names the offending ranges
            let msg = vs[0].to_string();
            assert!(msg.contains("reads"), "{msg}");
        }
        other => panic!("expected bounds violation, got {other:?}"),
    }
}

#[test]
fn forward_self_dependence_rejected() {
    let mut p = PipelineBuilder::new("fwd");
    let x = p.var("x");
    let f = p.func("f", &[(x, Interval::cst(0, 15))], ScalarType::Float);
    p.define(
        f,
        vec![
            Case::new(Expr::from(x).ge(1), Expr::at(f, [x - 1]) + 1.0),
            // forward reference: invalid scan order
            Case::new(Expr::from(x).le(0), Expr::at(f, [x + 1])),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    match compile(&pipe, &CompileOptions::optimized(vec![])) {
        Err(CompileError::InvalidSelfReference { func, reason }) => {
            assert_eq!(func, "f");
            assert!(reason.contains("forward"), "{reason}");
        }
        other => panic!("expected invalid self-reference, got {other:?}"),
    }
}

#[test]
fn self_read_of_current_point_rejected() {
    let mut p = PipelineBuilder::new("selfpt");
    let x = p.var("x");
    let f = p.func("f", &[(x, Interval::cst(0, 15))], ScalarType::Float);
    p.define(f, vec![Case::always(Expr::at(f, [x + 0]) + 1.0)])
        .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    assert!(matches!(
        compile(&pipe, &CompileOptions::optimized(vec![])),
        Err(CompileError::InvalidSelfReference { .. })
    ));
}

#[test]
fn scaled_self_access_rejected() {
    let mut p = PipelineBuilder::new("selfscale");
    let x = p.var("x");
    let f = p.func("f", &[(x, Interval::cst(0, 15))], ScalarType::Float);
    p.define(
        f,
        vec![
            Case::new(Expr::from(x).le(7), Expr::from(x)),
            Case::new(Expr::from(x).ge(8), Expr::at(f, [Expr::from(x) / 2])),
        ],
    )
    .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    assert!(matches!(
        compile(&pipe, &CompileOptions::optimized(vec![])),
        Err(CompileError::InvalidSelfReference { .. })
    ));
}

#[test]
fn zero_sized_image_rejected() {
    let mut p = PipelineBuilder::new("empty");
    let n = p.param("N");
    let img = p.image("I", ScalarType::Float, vec![PAff::param(n)]);
    let x = p.var("x");
    let f = p.func(
        "f",
        &[(x, Interval::new(PAff::cst(0), PAff::param(n) - 1))],
        ScalarType::Float,
    );
    p.define(f, vec![Case::always(Expr::at(img, [x + 0]))])
        .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    assert!(matches!(
        compile(&pipe, &CompileOptions::optimized(vec![0])),
        Err(CompileError::EmptyDomain { .. })
    ));
}

/// Parameter values whose geometry overflows `i64` or cannot be addressed
/// are a typed error from `compile` and from `instantiate` of a valid plan,
/// never a panic (they used to overflow in grouping or in `PAff::eval`).
/// Negative sizes still report an empty domain.
#[test]
fn extreme_params_rejected() {
    for b in all_benchmarks(Scale::Tiny) {
        let valid = plan(b.pipeline(), &CompileOptions::optimized(b.params())).unwrap();
        let nparams = b.params().len();
        for v in [i64::MAX, i64::MAX / 2, 1 << 40] {
            let params = vec![v; nparams];
            for (entry, got) in [
                (
                    "compile",
                    compile(b.pipeline(), &CompileOptions::optimized(params.clone())),
                ),
                ("instantiate", instantiate(&valid, &params)),
            ] {
                assert!(
                    matches!(
                        got,
                        Err(CompileError::InvalidOptions {
                            field: "params",
                            ..
                        })
                    ),
                    "{}: {entry} at {v}: {:?}",
                    b.name(),
                    got.err()
                );
            }
        }
        // Every app's input image is empty at −7 (Harris pads its input, so
        // at 0 it is not; `zero_sized_image_rejected` covers zero).
        let empty = vec![-7; nparams];
        for (entry, got) in [
            (
                "compile",
                compile(b.pipeline(), &CompileOptions::optimized(empty.clone())),
            ),
            ("instantiate", instantiate(&valid, &empty)),
        ] {
            assert!(
                matches!(got, Err(CompileError::EmptyDomain { .. })),
                "{}: {entry} at -7: {:?}",
                b.name(),
                got.err()
            );
        }
    }
}

/// The executor addresses at most `MAX_INDEX_TERMS` (4) data-dependent
/// dimensions per access; a fifth, in a read or in a reduction's target,
/// used to panic mid-run. Every compile entry point now rejects it with a
/// typed error naming the stage, and caches nothing.
#[test]
fn five_data_dependent_dims_rejected() {
    let mut p = PipelineBuilder::new("gather5");
    let table = p.image("T", ScalarType::Float, vec![PAff::cst(2); 5]);
    let keys = p.image("K", ScalarType::Float, vec![PAff::cst(16)]);
    let x = p.var("x");
    let key = Expr::at(keys, [x + 0]);
    let f = p.func("f", &[(x, Interval::cst(0, 15))], ScalarType::Float);
    p.define(f, vec![Case::always(Expr::at(table, vec![key; 5]))])
        .unwrap();
    let read = p.finish(&[f]).unwrap();

    let mut p = PipelineBuilder::new("scatter5");
    let keys = p.image("K", ScalarType::Float, vec![PAff::cst(16)]);
    let r = p.var("r");
    let dims: Vec<(VarId, Interval)> = (0..5)
        .map(|d| (p.var(format!("v{d}")), Interval::cst(0, 1)))
        .collect();
    let key = Expr::at(keys, [r + 0]);
    let h = p
        .accumulator(
            "h",
            &dims,
            ScalarType::Float,
            Accumulate {
                red_vars: vec![r],
                red_dom: vec![Interval::cst(0, 15)],
                target: vec![key; 5],
                value: Expr::Const(1.0),
                op: Reduction::Sum,
            },
        )
        .unwrap();
    let scatter = p.finish(&[h]).unwrap();

    let session = Session::with_threads(1);
    for (pipe, stage) in [(read, "f"), (scatter, "h")] {
        let opts = CompileOptions::optimized(vec![]);
        let check = |e: CompileError| match e {
            CompileError::UnsupportedAccess { func, reason } => {
                assert_eq!(func, stage);
                assert!(reason.contains("5"), "{reason}");
            }
            other => panic!("expected UnsupportedAccess({stage}), got {other:?}"),
        };
        check(plan(&pipe, &opts).unwrap_err());
        check(compile(&pipe, &opts).unwrap_err());
        check(session.compile(&pipe, &opts).unwrap_err());
    }
    assert_eq!((session.plan_cache_len(), session.cache_len()), (0, 0));
}

#[test]
fn execution_input_mismatches_reported() {
    let mut p = PipelineBuilder::new("inputs");
    let img = p.image("I", ScalarType::Float, vec![PAff::cst(16)]);
    let x = p.var("x");
    let f = p.func("f", &[(x, Interval::cst(0, 15))], ScalarType::Float);
    p.define(f, vec![Case::always(Expr::at(img, [x + 0]))])
        .unwrap();
    let pipe = p.finish(&[f]).unwrap();
    let compiled = compile(&pipe, &CompileOptions::optimized(vec![])).unwrap();
    let engine = Engine::with_threads(1);
    // Rejected by `submit` itself, before the run is admitted.
    let submit = |inputs: &[Buffer]| engine.submit(RunRequest::new(&compiled.program, inputs));
    // no inputs
    assert!(matches!(
        submit(&[]),
        Err(VmError::InputCountMismatch {
            expected: 1,
            got: 0
        })
    ));
    // wrong shape
    let bad = Buffer::zeros(Rect::new(vec![(0, 7)]));
    assert!(matches!(
        submit(&[bad]),
        Err(VmError::InputShapeMismatch { index: 0, .. })
    ));
    // wrong rank
    let bad = Buffer::zeros(Rect::new(vec![(0, 15), (0, 15)]));
    assert!(matches!(
        submit(&[bad]),
        Err(VmError::InputShapeMismatch { index: 0, .. })
    ));
}

#[test]
fn error_messages_are_human_readable() {
    // Display implementations must carry enough context to act on.
    let e = CompileError::ParamMismatch {
        pipeline: "demo".into(),
        expected: 2,
        got: 0,
        missing: vec![(0, "R".into()), (1, "C".into())],
        extra: vec![],
    };
    assert!(e.to_string().contains("2 parameter"));
    assert!(e.to_string().contains("`R` (#0)"));
    let e = VmError::InputCountMismatch {
        expected: 3,
        got: 1,
    };
    assert!(e.to_string().contains("expected 3"));
    let e = GraphError::Cycle(vec!["a".into(), "b".into()]);
    assert!(e.to_string().contains("a -> b"));
}
